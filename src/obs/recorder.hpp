// phisched::obs — the Recorder instrumented components talk to, and the
// Snapshot experiments hand back to callers.
//
// A Recorder bundles one metrics Registry and one event log for one run.
// Components receive a Recorder* via attach_telemetry(...); a null
// pointer (the default everywhere) means telemetry is off and the
// instrumented sites reduce to a single pointer test — determinism and
// performance of un-instrumented runs are untouched.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace phisched::obs {

/// A discrete occurrence keyed by simulation time: an OOM kill, an
/// oversubscription episode beginning, a job parked in COSMIC's
/// admission queue. Fields are ordered; the emitter pre-formats their
/// values (json_number for numbers) so the log is deterministic.
struct Event {
  SimTime t = 0.0;
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;

  friend bool operator==(const Event&, const Event&) = default;
};

class Recorder {
 public:
  [[nodiscard]] Registry& metrics() { return metrics_; }
  [[nodiscard]] const Registry& metrics() const { return metrics_; }
  /// Every event so far, in emission order (deterministic for a seeded
  /// run; the golden-file tests rely on that).
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  void event(SimTime t, std::string type,
             std::initializer_list<std::pair<std::string, std::string>> fields) {
    events_.push_back(Event{t, std::move(type), fields});
  }

 private:
  Registry metrics_;
  std::vector<Event> events_;
};

/// Immutable end-of-run view: flattened metrics + the full event log.
/// operator== makes "parallel run telemetry is bit-identical to serial"
/// a one-line assertion.
struct Snapshot {
  MetricsSnapshot metrics;
  std::vector<Event> events;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

[[nodiscard]] inline Snapshot take_snapshot(const Recorder& rec,
                                            SimTime until) {
  return Snapshot{rec.metrics().snapshot(until), rec.events()};
}

/// JSON for the metrics section:
/// {"counters":{...},"gauges":{...},"histograms":{"n":{"lo":..,"hi":..,
/// "counts":[..]}}}
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snap,
                                       bool pretty = false);

/// JSON array of events: [{"t":..,"type":"..","f":{..}}, ...]
[[nodiscard]] std::string events_json(const std::vector<Event>& events,
                                      bool pretty = false);

/// Full snapshot: {"metrics":{...},"events":[...]}
[[nodiscard]] std::string snapshot_json(const Snapshot& snap,
                                        bool pretty = false);

/// Prefix selection (the CLI's --metrics-filter): keeps the instruments
/// whose dotted name starts with one of `prefixes`. An empty prefix list
/// keeps everything.
[[nodiscard]] MetricsSnapshot filter_metrics(
    const MetricsSnapshot& snap, const std::vector<std::string>& prefixes);

/// Event counterpart: keeps events whose type, or any field VALUE (the
/// emitter identity fields like "device"/"node"/"link" carry the dotted
/// instrument prefix), starts with one of `prefixes`. An empty prefix
/// list keeps everything.
[[nodiscard]] std::vector<Event> filter_events(
    const std::vector<Event>& events,
    const std::vector<std::string>& prefixes);

}  // namespace phisched::obs
