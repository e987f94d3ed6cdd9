// Tour of the embedded ClassAd expression language — the matchmaking
// substrate the whole mini-Condor runs on: parsing, tri-state evaluation,
// MY/TARGET scoping, and two-way Requirements matching.
#include <cstdio>

#include "classad/classad.hpp"
#include "classad/eval.hpp"
#include "classad/lexer.hpp"
#include "classad/parser.hpp"

using namespace phisched::classad;

namespace {

void show(const char* source) {
  try {
    const Value v = evaluate(parse(source), EvalContext{});
    std::printf("  %-48s => %s\n", source, v.to_string().c_str());
  } catch (const ParseError& e) {
    std::printf("  %-48s => parse error: %s\n", source, e.what());
  }
}

}  // namespace

int main() {
  std::printf("1) expressions evaluate with ClassAd semantics\n");
  show("2 + 3 * 4");
  show("(240 - 180) / 60.0");
  show("3400 < 8192 - 512 ? 3400 : 8192 - 512");
  show("\"mic0\" == \"MIC0\"");
  show("2 > 1 ? \"yes\" : \"no\"");

  std::printf("\n2) undefined is contagious, but logic short-circuits\n");
  show("NoSuchAttribute + 1");
  show("false && NoSuchAttribute");
  show("true || NoSuchAttribute");
  show("NoSuchAttribute == undefined");
  show("NoSuchAttribute =?= undefined");

  std::printf("\n3) a machine ad and a job ad\n");
  ClassAd machine;
  machine.insert_string("Name", "node3");
  machine.insert_integer("FreeSlots", 12);
  machine.insert_integer("PhiFreeMemory", 4200);
  machine.insert_expr("Requirements", "MY.FreeSlots >= 1");

  ClassAd job;
  job.insert_integer("RequestPhiMemory", 3400);
  job.insert_integer("RequestPhiThreads", 60);
  job.insert_expr("Requirements",
                  "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
                  "TARGET.FreeSlots >= 1");
  job.insert_expr("Rank", "TARGET.PhiFreeMemory");

  std::printf("machine ad:\n%s", machine.to_string().c_str());
  std::printf("job ad:\n%s\n", job.to_string().c_str());

  std::printf("4) matchmaking\n");
  std::printf("  job accepts machine:     %s\n",
              requirements_met(job, machine) ? "true" : "false");
  std::printf("  machine accepts job:     %s\n",
              requirements_met(machine, job) ? "true" : "false");
  std::printf("  symmetric match:         %s\n",
              symmetric_match(job, machine) ? "true" : "false");
  std::printf("  job Rank on this machine: %.0f\n",
              job.eval_real("Rank", &machine).value_or(0.0));

  std::printf("\n5) the sharing-aware add-on's qedit: pin to one node\n");
  job.insert_expr("Requirements",
                  "TARGET.Name == \"node5\" && "
                  "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  std::printf("  after qedit, node3 still matches? %s\n",
              requirements_met(job, machine) ? "true" : "false");
  machine.insert_string("Name", "node5");
  std::printf("  renamed to node5, matches now?    %s\n",
              requirements_met(job, machine) ? "true" : "false");
  return 0;
}
