// Trace replay: drive a generated request stream through a
// SelectionService — in-process, or over the wire through the HTTP tier —
// and account for what came back.
//
// Replay is the measurement half of the simulator: per trace phase it
// reports throughput (requests and queries per wall second), the request
// latency distribution (p50/p99/p999 from a support::LatencyHistogram),
// and the ANSWER-SOURCE MIX — how many queries were served from the LRU
// cache, from an atlas slice, or by direct measurement. The source mix is
// the simulator's primary observable: it is what the locality and batch
// knobs in a trace actually move, and in-process it is bit-deterministic
// (same service state + same generated stream => same counts), which is
// what the CI smoke diffs two runs against.
//
// HTTP replay sends the same stream through net::Client connections
// (round-robin, strictly ordered per connection) and recovers each
// answer's source from the wire format. With one connection against a
// pre-warmed service the mix is deterministic too; with several, request
// interleaving at the server makes cache-vs-atlas attribution racy — the
// totals still add up, the split may wobble.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/selection_service.hpp"
#include "sim/generator.hpp"
#include "sim/trace.hpp"
#include "support/histogram.hpp"

namespace lamb::sim {

struct ReplayConfig {
  /// HTTP replay: client connections, requests round-robined across them
  /// (each connection is strictly ordered; 1 = fully deterministic).
  std::size_t connections = 1;
  /// Pre-build every atlas slice the stream will touch before timing
  /// starts, so replay measures steady-state serving, not first-touch
  /// scans.
  bool warm = false;
  /// Time-scale factor tying virtual to wall time: 1.0 replays arrivals in
  /// real time, 2.0 twice as fast, 0 (default) runs flat out back-to-back.
  double pace = 0.0;
  /// Attribute serving time to pipeline stages per phase: the replay
  /// enables the tracer's always-on counters tier (if not already on) and
  /// diffs obs::tracer().stage_snapshots() at phase boundaries. In-process
  /// replay only sees its own process's tracer — over HTTP this reports
  /// the server's stages only when it shares the process.
  bool stage_breakdown = false;
};

struct PhaseStats {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;  ///< singles + queries inside batches
  std::uint64_t batches = 0;
  // Answer-source mix over all queries of the phase.
  std::uint64_t cache = 0;
  std::uint64_t atlas = 0;
  std::uint64_t measured = 0;
  std::uint64_t fallback = 0;  ///< degraded (source=fallback) answers
  // Non-200 classification (HTTP replay only; in-process replay throws on
  // failure instead): shed = admission 503s, deadline = 504s, errors =
  // everything else. A failed request's queries count as unanswered — the
  // source mix only sums answered queries.
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;
  double virtual_seconds = 0.0;  ///< phase duration in the spec
  double wall_seconds = 0.0;     ///< time spent replaying the phase
  // Request latencies (one sample per request, batches included).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  /// Per-stage attribution, indexed by obs::Stage
  /// (ReplayConfig::stage_breakdown; empty otherwise). The PMU part covers
  /// the phase's SAMPLED spans: all zero when the PMU is unavailable or the
  /// tracer runs counters-only (sample_every == 0, the stage_breakdown
  /// default); serve_cli profile replays with full sampling so it fills in.
  std::vector<obs::StageTotals> stages;
};

struct SimReport {
  std::vector<PhaseStats> phases;

  std::uint64_t total_queries() const;
  double total_wall_seconds() const;

  /// Human-readable per-phase table.
  std::string to_string() const;
  /// JSON array, one flat object per phase — the same shape as
  /// bm_kernels --json, so the benchmark tooling ingests either.
  std::string to_json() const;
  /// One line per phase of just the deterministic fields
  /// (requests/queries/source counts) — what the CI smoke diffs between
  /// two same-seed runs.
  std::string source_mix() const;
};

/// Replay `requests` (from TraceGenerator::generate on `spec`) directly
/// against the service. Singles go through query(), batches through
/// query_batch().
SimReport replay_in_process(serve::SelectionService& service,
                            const std::vector<Request>& requests,
                            const TraceSpec& spec, const ReplayConfig& cfg);

/// Replay over HTTP against a server mounted at host:port. Singles POST
/// /v1/query, batches POST /v1/batch; sources are recovered from the
/// answer lines. Throws net::NetError on connection failure and
/// support::CheckError on malformed answers.
SimReport replay_http(const std::string& host, std::uint16_t port,
                      const std::vector<Request>& requests,
                      const TraceSpec& spec, const ReplayConfig& cfg);

/// The wire form of a query (routes' parse_query_line inverse):
/// "family,d1,d2[,dk]*[,dim=N][,exact]".
std::string format_query_line(const serve::Query& q);

}  // namespace lamb::sim
