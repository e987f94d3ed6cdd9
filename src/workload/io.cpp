#include "workload/io.hpp"

#include <climits>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace phisched::workload {

namespace {

/// Shortest decimal form that round-trips a double exactly.
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Try shorter representations first for readability.
  for (int precision = 1; precision <= 16; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    if (read_real(shorter) == v) return shorter;
  }
  return buf;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::invalid_argument("jobset parse error on line " +
                              std::to_string(line_no) + ": " + message);
}

/// Key=value tokens of a `job ...` header line.
std::map<std::string, std::string> parse_header(std::size_t line_no,
                                                std::istringstream& in) {
  std::map<std::string, std::string> out;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail(line_no, "expected key=value, got '" + token + "'");
    }
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

std::int64_t to_int(std::size_t line_no, const std::string& s) {
  const auto v = read_int(s);
  if (!v) {
    fail(line_no, "expected an integer in the 64-bit range, got '" + s + "'");
  }
  return *v;
}

/// An integer that must fit an int (thread counts, device counts and
/// indices): a wider value would wrap in the cast.
int to_int32(std::size_t line_no, const std::string& s) {
  const std::int64_t v = to_int(line_no, s);
  if (v < INT_MIN || v > INT_MAX) {
    fail(line_no, "integer out of range: '" + s + "'");
  }
  return static_cast<int>(v);
}

double to_real(std::size_t line_no, const std::string& s) {
  const auto v = read_real(s);
  if (!v) {
    fail(line_no, "expected a finite decimal number, got '" + s + "'");
  }
  return *v;
}

}  // namespace

std::string to_text(const JobSet& jobs) {
  std::ostringstream os;
  os << "# phisched jobset v1\n";
  for (const JobSpec& job : jobs) {
    PHISCHED_REQUIRE(
        job.template_name.find_first_of(" \t\n=") == std::string::npos,
        "jobset format: template names must not contain whitespace or '='");
    os << "job id=" << job.id;
    if (!job.template_name.empty()) os << " template=" << job.template_name;
    os << " mem=" << job.mem_req_mib << " threads=" << job.threads_req
       << " base=" << job.base_memory_mib << " submit=" << exact(job.submit_time);
    if (job.devices_req != 1) os << " devices=" << job.devices_req;
    os << "\n";
    for (const Segment& seg : job.profile.segments()) {
      if (seg.kind == SegmentKind::kHost) {
        os << "  host " << exact(seg.duration) << "\n";
      } else if (seg.kind == SegmentKind::kSync) {
        os << "  sync\n";
      } else {
        os << (seg.async ? "  offload_async " : "  offload ")
           << exact(seg.duration) << " " << seg.threads << " "
           << seg.memory_mib;
        if (seg.device_index != 0) os << " " << seg.device_index;
        os << "\n";
      }
    }
    os << "end\n";
  }
  return os.str();
}

JobSet from_text(std::string_view text) {
  JobSet jobs;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  bool in_job = false;
  JobSpec current;
  std::vector<Segment> segments;

  while (std::getline(stream, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string keyword;
    if (!(in >> keyword)) continue;  // blank

    if (keyword == "job") {
      if (in_job) fail(line_no, "nested 'job' (missing 'end'?)");
      in_job = true;
      current = JobSpec{};
      segments.clear();
      const auto fields = parse_header(line_no, in);
      for (const auto& [key, value] : fields) {
        if (key == "id") {
          const std::int64_t id = to_int(line_no, value);
          if (id < 0) fail(line_no, "negative job id '" + value + "'");
          current.id = static_cast<JobId>(id);
        } else if (key == "template") {
          current.template_name = value;
        } else if (key == "mem") {
          current.mem_req_mib = to_int(line_no, value);
        } else if (key == "threads") {
          current.threads_req = to_int32(line_no, value);
        } else if (key == "base") {
          current.base_memory_mib = to_int(line_no, value);
        } else if (key == "submit") {
          current.submit_time = to_real(line_no, value);
        } else if (key == "devices") {
          current.devices_req = to_int32(line_no, value);
        } else {
          fail(line_no, "unknown job field '" + key + "'");
        }
      }
    } else if (keyword == "host") {
      if (!in_job) fail(line_no, "'host' outside a job block");
      std::string duration;
      if (!(in >> duration)) fail(line_no, "host needs a duration");
      segments.push_back(Segment::host(to_real(line_no, duration)));
    } else if (keyword == "offload" || keyword == "offload_async") {
      if (!in_job) fail(line_no, "'" + keyword + "' outside a job block");
      std::string duration;
      std::string threads;
      std::string memory;
      if (!(in >> duration >> threads >> memory)) {
        fail(line_no, keyword + " needs: duration threads memory [device]");
      }
      int device_index = 0;
      if (std::string device; in >> device) {
        device_index = to_int32(line_no, device);
      }
      Segment seg = Segment::offload(
          to_real(line_no, duration),
          to_int32(line_no, threads),
          to_int(line_no, memory), device_index);
      seg.async = keyword == "offload_async";
      segments.push_back(seg);
    } else if (keyword == "sync") {
      if (!in_job) fail(line_no, "'sync' outside a job block");
      segments.push_back(Segment::sync());
    } else if (keyword == "end") {
      if (!in_job) fail(line_no, "'end' outside a job block");
      std::string extra;
      if (in >> extra) fail(line_no, "trailing tokens after 'end'");
      current.profile = OffloadProfile(segments);
      jobs.push_back(std::move(current));
      in_job = false;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_job) fail(line_no, "unterminated job block (missing 'end')");
  return jobs;
}

bool save_jobset(const JobSet& jobs, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_text(jobs);
  return static_cast<bool>(out);
}

JobSet load_jobset(const std::string& path) {
  std::ifstream in(path);
  PHISCHED_REQUIRE(static_cast<bool>(in), "cannot open jobset file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_text(buffer.str());
}

}  // namespace phisched::workload
