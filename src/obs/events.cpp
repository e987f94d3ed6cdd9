#include "obs/events.hpp"

namespace phisched::obs {

void EventLog::emit(
    SimTime t, std::string type,
    std::initializer_list<std::pair<std::string, std::string>> fields) {
  Event e;
  e.t = t;
  e.type = std::move(type);
  e.fields.assign(fields.begin(), fields.end());
  events_.push_back(std::move(e));
}

std::vector<Event> EventLog::of_type(const std::string& type) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

}  // namespace phisched::obs
