// phisched::obs — structured event log.
//
// Events are discrete occurrences keyed by simulation time: an OOM kill,
// an oversubscription episode beginning, a job parked in COSMIC's
// admission queue. Each carries a type tag and ordered string fields
// (values pre-formatted by the emitter with json_number for determinism).
// The log preserves emission order, which is deterministic for a given
// seeded run — the golden-file tests rely on that.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace phisched::obs {

struct Event {
  SimTime t = 0.0;
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;

  friend bool operator==(const Event&, const Event&) = default;
};

class EventLog {
 public:
  void emit(SimTime t, std::string type,
            std::initializer_list<std::pair<std::string, std::string>> fields);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Events of one type, in emission order.
  [[nodiscard]] std::vector<Event> of_type(const std::string& type) const;

 private:
  std::vector<Event> events_;
};

}  // namespace phisched::obs
