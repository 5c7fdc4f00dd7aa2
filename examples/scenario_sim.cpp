// Config-driven network simulator: run a scenario file (or the built-in
// demo) and print the report.
//
//   $ ./scenario_sim [file.scn]
//
// The scenario language (docs/SCENARIO.md) declares routers, links,
// LSPs (explicit, CSPF, PHP, merged, tunnelled), traffic flows and
// failure events — the whole library driven from a text file.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario_runner.hpp"

namespace {

// Built-in demo: a congested core with QoS, a tunnel, and a mid-run
// failure of the protection-irrelevant alternate path.
constexpr const char* kDemo = R"(
# --- topology: two LERs, four LSRs ---
qos strict capacity=32
router W ler engine=linear
router E ler engine=linear
router A lsr
router B lsr
router X lsr
router C lsr

link W A 100M 0.5ms
link A B 10M  1ms       # thin core link
link A X 100M 2ms       # wide detour
link X B 100M 2ms
link B E 100M 0.5ms
link A C 100M 1ms       # tunnel interior
link C B 100M 1ms

# --- label switched paths ---
lsp      10.1.0.0/16 W A X B E bw=2M        # VoIP pinned to the detour
lsp-cspf 10.2.0.0/16 W E bw=5M              # bulk: CSPF picks the best fit
tunnel   T1 A C B
lsp-via-tunnel 10.3.0.0/16 pre W A tunnel T1 post B E

# --- traffic ---
flow cbr     1 W 10.1.0.9 cos=6 size=160  interval=20ms stop=1
flow poisson 2 W 10.2.0.9 cos=1 size=1000 rate=700 seed=42 stop=1
flow video   3 W 10.3.0.9 cos=4 size=1200 fps=30 ppf=4 stop=1

run 1
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
    std::printf("running scenario %s\n\n", argv[1]);
  } else {
    text = kDemo;
    std::printf("running the built-in demo scenario "
                "(pass a .scn file to run your own)\n\n");
  }

  const auto result = empls::core::ScenarioRunner::run_text(text);
  // Flush the banner and report before each stderr line, so a piped
  // stdout still reads in order with it.
  if (const auto* err = std::get_if<empls::net::ScenarioError>(&result)) {
    std::fflush(stdout);
    std::fprintf(stderr, "scenario error at line %d: %s\n", err->line,
                 err->message.c_str());
    return 1;
  }
  const auto& report = std::get<empls::core::ScenarioRunner::Report>(result);
  std::printf("%s", report.to_string().c_str());
  if (!report.expects_passed()) {
    std::fflush(stdout);
    std::fprintf(stderr, "SLO violated: one or more expect directives "
                         "failed (see the slo: section above)\n");
    return 1;
  }
  return 0;
}
