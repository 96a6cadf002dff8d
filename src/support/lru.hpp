// Capacity-bounded least-recently-used cache.
//
// One map + intrusive recency list; not synchronised — callers that share a
// cache across threads wrap it in a mutex (serve/ stripes many of these
// behind per-shard mutexes, MeasuredMachine keeps a single private one).
// `capacity == 0` means unbounded.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace lamb::support {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached value and marks it most-recently-used.
  std::optional<Value> get(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites; evicts the least-recently-used entry when over
  /// capacity.
  void put(const Key& key, Value value) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
    if (capacity_ > 0 && map_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Drops every entry.
  void clear() {
    map_.clear();
    order_.clear();
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      map_;
};

}  // namespace lamb::support
