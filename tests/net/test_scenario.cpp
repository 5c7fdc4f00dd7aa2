// Unit tests for the scenario parser: directive coverage, unit
// suffixes, and error reporting with line numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "net/scenario.hpp"

namespace empls::net {
namespace {

Scenario parse_ok(std::string_view text) {
  auto result = Scenario::parse(text);
  if (const auto* err = std::get_if<ScenarioError>(&result)) {
    ADD_FAILURE() << "line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<Scenario>(std::move(result));
}

ScenarioError parse_err(std::string_view text) {
  auto result = Scenario::parse(text);
  if (!std::holds_alternative<ScenarioError>(result)) {
    ADD_FAILURE() << "expected a parse error";
    return {};
  }
  return std::get<ScenarioError>(result);
}

TEST(ScenarioUnits, Bandwidth) {
  EXPECT_DOUBLE_EQ(*parse_bandwidth("100M"), 100e6);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("2.5G"), 2.5e9);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("64k"), 64e3);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("1200"), 1200.0);
  EXPECT_FALSE(parse_bandwidth("fast"));
  EXPECT_FALSE(parse_bandwidth(""));
  EXPECT_FALSE(parse_bandwidth("-3M"));
}

TEST(ScenarioUnits, Time) {
  EXPECT_DOUBLE_EQ(*parse_time("20ms"), 0.020);
  EXPECT_DOUBLE_EQ(*parse_time("50us"), 50e-6);
  EXPECT_DOUBLE_EQ(*parse_time("3ns"), 3e-9);
  EXPECT_DOUBLE_EQ(*parse_time("1s"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_time("0.5"), 0.5);
  EXPECT_FALSE(parse_time("soon"));
  EXPECT_FALSE(parse_time("-1ms"));
}

TEST(ScenarioParse, FullFeaturedScenario) {
  const auto s = parse_ok(R"(
# a comment
qos wrr capacity=16 red
router A ler engine=hw clock=25M
router B lsr
router C lsr
router D ler
link A B 10M 1ms
link B C 10M 1ms
link C D 10M 1ms
lsp 10.1.0.0/16 A B C D bw=2M php
lsp-cspf 10.2.0.0/16 A D
tunnel T1 B C D
lsp-via-tunnel 10.3.0.0/16 pre A B tunnel T1 post D bw=1M
flow cbr 1 A 10.1.0.5 cos=6 size=160 interval=20ms start=0.1s stop=0.9s
flow poisson 2 A 10.2.0.5 rate=500 seed=7
flow video 3 A 10.3.0.5 fps=25 ppf=4
flow onoff 4 A 10.1.0.6 rate=200 on=40ms off=60ms
fail 0.3 B C
restore 0.5 B C
run 1s
)");
  EXPECT_EQ(s.qos.scheduler, SchedulerKind::kWeightedRoundRobin);
  EXPECT_EQ(s.qos.drop, DropPolicy::kRed);
  EXPECT_EQ(s.qos.queue_capacity, 16u);
  ASSERT_EQ(s.routers.size(), 4u);
  EXPECT_TRUE(s.routers[0].is_ler);
  EXPECT_EQ(s.routers[0].engine.kind, EngineDecl::Kind::kHw);
  EXPECT_DOUBLE_EQ(s.routers[0].clock_hz, 25e6);
  EXPECT_EQ(s.links.size(), 3u);
  ASSERT_EQ(s.lsps.size(), 2u);
  EXPECT_TRUE(s.lsps[0].php);
  EXPECT_DOUBLE_EQ(s.lsps[0].bw, 2e6);
  EXPECT_TRUE(s.lsps[1].cspf);
  ASSERT_EQ(s.tunnels.size(), 1u);
  EXPECT_EQ(s.tunnels[0].path.size(), 3u);
  ASSERT_EQ(s.tunnel_lsps.size(), 1u);
  EXPECT_EQ(s.tunnel_lsps[0].pre, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(s.tunnel_lsps[0].tunnel, "T1");
  ASSERT_EQ(s.flows.size(), 4u);
  EXPECT_EQ(s.flows[0].kind, "cbr");
  EXPECT_DOUBLE_EQ(s.flows[0].start, 0.1);
  EXPECT_EQ(s.flows[3].kind, "onoff");
  ASSERT_EQ(s.link_events.size(), 2u);
  EXPECT_FALSE(s.link_events[0].up);
  EXPECT_TRUE(s.link_events[1].up);
  ASSERT_TRUE(s.run_duration.has_value());
  EXPECT_DOUBLE_EQ(*s.run_duration, 1.0);
}

TEST(ScenarioParse, EngineKindsAcceptedAndRejected) {
  const auto s = parse_ok(
      "router A ler engine=trie\n"
      "router B lsr engine=sharded:4:trie\n"
      "router C lsr engine=cam\n"
      "router D lsr engine=sharded:8\n");
  ASSERT_EQ(s.routers.size(), 4u);
  EXPECT_EQ(s.routers[0].engine.kind, EngineDecl::Kind::kTrie);
  EXPECT_EQ(s.routers[1].engine.kind, EngineDecl::Kind::kSharded);
  EXPECT_EQ(s.routers[1].engine.shards, 4u);
  EXPECT_TRUE(s.routers[1].engine.trie_replicas);
  EXPECT_EQ(s.routers[2].engine.kind, EngineDecl::Kind::kCam);
  EXPECT_EQ(s.routers[3].engine.kind, EngineDecl::Kind::kSharded);
  EXPECT_EQ(s.routers[3].engine.shards, 8u);
  EXPECT_FALSE(s.routers[3].engine.trie_replicas);

  const auto unknown =
      parse_err("router A ler\nrouter B lsr engine=patricia\n");
  EXPECT_EQ(unknown.line, 2);
  EXPECT_EQ(unknown.message, "unknown engine: patricia (linear|cam|trie|hw)");
  EXPECT_NE(parse_err("router A ler engine=sharded:4:hash\n")
                .message.find("replica"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler engine=sharded:2:\n")
                .message.find("replica"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler engine=sharded:0:trie\n")
                .message.find("sharded"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler engine=sharded::trie\n")
                .message.find("sharded"),
            std::string::npos);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  const auto err = parse_err("router A ler\nrouter B lsr\nlink A Z 10M 1ms\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("undeclared"), std::string::npos);
}

TEST(ScenarioParse, RejectsUnknownDirective) {
  EXPECT_EQ(parse_err("teleport A B\n").line, 1);
}

TEST(ScenarioParse, RejectsDuplicateRouter) {
  const auto err = parse_err("router A ler\nrouter A lsr\n");
  EXPECT_EQ(err.line, 2);
}

TEST(ScenarioParse, RejectsBadValues) {
  EXPECT_NE(parse_err("router A ler\nrouter B ler\nlink A B fast 1ms\n")
                .message.find("bandwidth"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr x A 10.0.0.1\n")
                .message.find("flow id"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr 1 A not-an-ip\n")
                .message.find("destination"),
            std::string::npos);
  EXPECT_NE(parse_err("router A ler\nflow cbr 1 A 10.0.0.1 cos=9\n")
                .message.find("cos"),
            std::string::npos);
  EXPECT_NE(parse_err("lsp 10.0.0.0/99 A B\n").message.find("prefix"),
            std::string::npos);
}

// NaN and infinities are rejected with the usual line-numbered error
// before any range check: `cos=nan` used to pass every range written as
// a rejection, and casting a non-finite value to an integer field is
// undefined behaviour.
TEST(ScenarioParse, RejectsNonFiniteNumbers) {
  struct Case {
    const char* text;
    int line;
    const char* message;
  };
  const Case cases[] = {
      // A plain number.
      {"router A ler\nflow cbr 1 A 10.0.0.1 cos=nan\n", 2, "bad cos: nan"},
      // A time.
      {"router A ler\nrouter B ler\nlink A B 10M inf\n", 3,
       "bad delay: inf"},
      {"router A ler\nflow cbr 1 A 10.0.0.1 start=infs\n", 2,
       "bad start: infs"},
      // A rate.
      {"router A ler\nrouter B ler\nlink A B infk 1ms\n", 3,
       "bad bandwidth: infk"},
      // An integer field.
      {"router A ler\nflow poisson 1 A 10.0.0.1 rate=500 seed=inf\n", 2,
       "bad seed: inf"},
      {"domains nan\n", 1, "bad domains (want 1..256 or auto): nan"},
  };
  for (const Case& c : cases) {
    const auto err = parse_err(c.text);
    EXPECT_EQ(err.line, c.line) << c.text;
    EXPECT_EQ(err.message, c.message) << c.text;
  }
  // The finite spellings of the same values still parse.
  const auto s = parse_ok(
      "router A ler\nrouter B ler\nlink A B 10k 1ms\n"
      "flow poisson 1 A 10.0.0.1 rate=500 seed=7 cos=3 start=1s\n");
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].cos, 3);
}

// An integer field takes only values its type holds: casting a finite
// double outside the type's range is undefined behaviour (`flow cbr 5e9`
// used to run as flow 705032704).
TEST(ScenarioParse, RejectsIntegersOutsideTheirType) {
  struct Case {
    const char* text;
    const char* message;
  };
  const Case cases[] = {
      {"router A ler\nflow cbr 5e9 A 10.0.0.1\n", "bad flow id: 5e9"},
      {"router A ler\nflow poisson 1 A 10.0.0.1 rate=500 seed=1e30\n",
       "bad seed: 1e30"},
      {"router A ler\nflow poisson 1 A 10.0.0.1 rate=500 seed=-1\n",
       "bad seed: -1"},
  };
  for (const Case& c : cases) {
    const auto err = parse_err(c.text);
    EXPECT_EQ(err.line, 2) << c.text;
    EXPECT_EQ(err.message, c.message) << c.text;
  }
  // The type's own maximum still parses.
  const auto s = parse_ok("router A ler\npolice A 4294967295 1M\n");
  ASSERT_EQ(s.policers.size(), 1u);
  EXPECT_EQ(s.policers[0].flow_id, 4294967295u);
}

// Flow ids from 0x40000000 up belong to the loadgen, attack and OAM
// blocks, whose deliveries the runner books separately; a scripted flow
// there would report all of its packets lost.
TEST(ScenarioParse, FlowIdsStayBelowTheReservedBlocks) {
  for (const char* id : {"1073741824", "4294967295"}) {
    const auto err = parse_err(std::string("router A ler\nflow cbr ") + id +
                               " A 10.0.0.1\n");
    EXPECT_EQ(err.line, 2) << id;
    EXPECT_EQ(err.message, std::string("bad flow id: ") + id);
  }
  const auto s = parse_ok("router A ler\nflow cbr 1073741823 A 10.0.0.1\n");
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].id, 1073741823u);
}

TEST(ScenarioParse, RejectsShortDeclarations) {
  EXPECT_EQ(parse_err("router A\n").line, 1);
  EXPECT_EQ(parse_err("router A ler\nlink A\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nrouter B ler\nlsp 10.0.0.0/8 A\n").line,
            3);
  EXPECT_EQ(parse_err("run\n").line, 1);
}

TEST(ScenarioParse, CspfTakesExactlyTwoNodes) {
  const auto err = parse_err(
      "router A ler\nrouter B lsr\nrouter C ler\n"
      "link A B 1M 1ms\nlink B C 1M 1ms\n"
      "lsp-cspf 10.0.0.0/8 A B C\n");
  EXPECT_EQ(err.line, 6);
}

TEST(ScenarioParse, OamPolicerAutorepairDirectives) {
  const auto s = parse_ok(R"(
router A ler
router B ler
link A B 10M 1ms
police A 7 2M burst=3000 demote
ping 0.1 A 10.0.0.1
traceroute 0.2s A 10.0.0.2
autorepair 20ms dead=5
)");
  ASSERT_EQ(s.policers.size(), 1u);
  EXPECT_EQ(s.policers[0].ingress, "A");
  EXPECT_EQ(s.policers[0].flow_id, 7u);
  EXPECT_DOUBLE_EQ(s.policers[0].rate_bps, 2e6);
  EXPECT_DOUBLE_EQ(s.policers[0].burst_bytes, 3000);
  EXPECT_TRUE(s.policers[0].demote);
  ASSERT_EQ(s.oam_probes.size(), 2u);
  EXPECT_FALSE(s.oam_probes[0].traceroute);
  EXPECT_TRUE(s.oam_probes[1].traceroute);
  EXPECT_DOUBLE_EQ(s.oam_probes[1].at, 0.2);
  ASSERT_TRUE(s.autorepair_hello.has_value());
  EXPECT_DOUBLE_EQ(*s.autorepair_hello, 0.020);
  EXPECT_EQ(s.autorepair_dead, 5u);
}

TEST(ScenarioParse, OamPolicerErrors) {
  EXPECT_EQ(parse_err("router A ler\nping 0.1 Z 10.0.0.1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nping 0.1 A not-an-ip\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\npolice A x 1M\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\npolice A 1 fast\n").line, 2);
  EXPECT_EQ(parse_err("autorepair soon\n").line, 1);
}

TEST(ScenarioParse, FaultAndProtectionDirectives) {
  const auto s = parse_ok(R"(
router A ler
router B lsr
router C ler
link A B 10M 1ms
link B C 10M 1ms
protect bw=500k
flap 0.1 A B 15ms
crash 0.2s B for=100ms
crash 0.4 B
corrupt 0.3 B salt=7 resync=20ms
corrupt 0.5s B
)");
  EXPECT_TRUE(s.protect);
  EXPECT_DOUBLE_EQ(s.protect_bw, 500e3);

  ASSERT_EQ(s.flaps.size(), 1u);
  EXPECT_DOUBLE_EQ(s.flaps[0].at, 0.1);
  EXPECT_EQ(s.flaps[0].a, "A");
  EXPECT_EQ(s.flaps[0].b, "B");
  EXPECT_DOUBLE_EQ(s.flaps[0].down_for, 0.015);

  ASSERT_EQ(s.crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(s.crashes[0].at, 0.2);
  EXPECT_EQ(s.crashes[0].node, "B");
  EXPECT_DOUBLE_EQ(s.crashes[0].duration, 0.1);
  EXPECT_DOUBLE_EQ(s.crashes[1].duration, 0.0) << "no for= means stays dead";

  ASSERT_EQ(s.corruptions.size(), 2u);
  EXPECT_DOUBLE_EQ(s.corruptions[0].at, 0.3);
  EXPECT_EQ(s.corruptions[0].node, "B");
  EXPECT_EQ(s.corruptions[0].salt, 7u);
  EXPECT_DOUBLE_EQ(s.corruptions[0].resync, 0.020);
  EXPECT_EQ(s.corruptions[1].salt, 0u);
  EXPECT_DOUBLE_EQ(s.corruptions[1].resync, 0.0) << "no resync= means never";
}

TEST(ScenarioParse, BareProtectDefaultsToZeroBandwidth) {
  const auto s = parse_ok("router A ler\nprotect\n");
  EXPECT_TRUE(s.protect);
  EXPECT_DOUBLE_EQ(s.protect_bw, 0.0);
}

TEST(ScenarioParse, FaultDirectiveErrors) {
  const char* topo = "router A ler\nrouter B ler\nlink A B 10M 1ms\n";
  const auto with = [&](const char* line) {
    return parse_err(std::string(topo) + line);
  };
  // flap wants exactly <time> <a> <b> <down-for> with a positive outage.
  EXPECT_EQ(with("flap 0.1 A B\n").line, 4);
  EXPECT_EQ(with("flap 0.1 A B 0ms\n").line, 4);
  EXPECT_EQ(with("flap 0.1 A Z 10ms\n").line, 4);
  EXPECT_EQ(with("flap soon A B 10ms\n").line, 4);
  // crash/corrupt want a known node and parsable options.
  EXPECT_EQ(with("crash 0.1 Z\n").line, 4);
  EXPECT_EQ(with("crash 0.1 B for=soon\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 Z\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 B salt=x\n").line, 4);
  EXPECT_EQ(with("corrupt 0.1 B resync=soon\n").line, 4);
  // protect takes only the bw option.
  EXPECT_EQ(with("protect bw=fast\n").line, 4);
}

TEST(ScenarioParse, TrailingCommentsIgnored) {
  const auto s = parse_ok("router A ler # the ingress\n");
  ASSERT_EQ(s.routers.size(), 1u);
}

TEST(ScenarioParse, TelemetryDirectives) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample 50ms\n"
      "timeline out.csv\n"
      "profile\n"
      "run 1\n");
  ASSERT_TRUE(s.sample_interval.has_value());
  EXPECT_DOUBLE_EQ(*s.sample_interval, 0.05);
  EXPECT_EQ(s.timeline_path, "out.csv");
  EXPECT_TRUE(s.profile);
}

TEST(ScenarioParse, TelemetryDirectivesEqualsSpellingAndOff) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample=0.1s\n"
      "timeline=off\n"
      "profile off\n"
      "run 1\n");
  ASSERT_TRUE(s.sample_interval.has_value());
  EXPECT_DOUBLE_EQ(*s.sample_interval, 0.1);
  EXPECT_TRUE(s.timeline_path.empty());
  EXPECT_FALSE(s.profile);
}

TEST(ScenarioParse, ExpectDirectives) {
  const auto s = parse_ok(
      "router A ler\n"
      "sample 100ms\n"
      "expect empls_delivered_total > 100\n"
      "expect empls_loadgen_latency_ns.p999 <= 2e6 during 0.2s..0.8s\n"
      "expect empls_drops_total{reason=\"policer\"} == 0\n"
      "run 1\n");
  ASSERT_EQ(s.expects.size(), 3u);

  EXPECT_EQ(s.expects[0].metric, "empls_delivered_total");
  EXPECT_EQ(s.expects[0].op, ExpectDecl::Op::kGt);
  EXPECT_DOUBLE_EQ(s.expects[0].value, 100.0);
  EXPECT_FALSE(s.expects[0].windowed);
  EXPECT_EQ(s.expects[0].line, 3);

  EXPECT_EQ(s.expects[1].metric, "empls_loadgen_latency_ns.p999");
  EXPECT_EQ(s.expects[1].op, ExpectDecl::Op::kLe);
  EXPECT_TRUE(s.expects[1].windowed);
  EXPECT_DOUBLE_EQ(s.expects[1].t0, 0.2);
  EXPECT_DOUBLE_EQ(s.expects[1].t1, 0.8);

  // A braced label body survives tokenisation as one token.
  EXPECT_EQ(s.expects[2].metric, "empls_drops_total{reason=\"policer\"}");
  EXPECT_EQ(s.expects[2].op, ExpectDecl::Op::kEq);
}

TEST(ScenarioParse, TelemetryDirectiveErrors) {
  // sample needs a positive interval and a run duration.
  EXPECT_GT(parse_err("router A ler\nsample 0\nrun 1\n").line, 0);
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n").message,
            "sample requires a run duration");
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n").line, 2);
  // timeline output is meaningless without sampling.
  EXPECT_EQ(parse_err("router A ler\ntimeline x.csv\nrun 1\n").message,
            "timeline output requires a sample interval");
  EXPECT_EQ(parse_err("router A ler\ntimeline x.csv\nrun 1\n").line, 2);
  // expect wants <metric> <op> <value>, a known operator, and a sane
  // window.
  EXPECT_EQ(parse_err("router A ler\nexpect empls_x >\nrun 1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nexpect empls_x ~ 3\nrun 1\n").line, 2);
  EXPECT_EQ(
      parse_err("router A ler\nexpect empls_x < umpteen\nrun 1\n").line, 2);
  EXPECT_EQ(parse_err("router A ler\nsample 10ms\n"
                      "expect empls_x < 1 during 0.5s..0.2s\nrun 1\n")
                .line,
            3);
  // A windowed expect without a sample cadence has nothing to check.
  const auto err = parse_err(
      "router A ler\nexpect empls_x < 1 during 0s..1s\nrun 1\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("sample interval"), std::string::npos);
}

TEST(ScenarioParse, ExpectOperatorSpellings) {
  const auto s = parse_ok(
      "router A ler\n"
      "expect m1 < 1\nexpect m2 <= 1\nexpect m3 > 1\n"
      "expect m4 >= 1\nexpect m5 == 1\nexpect m6 != 1\n"
      "run 1\n");
  ASSERT_EQ(s.expects.size(), 6u);
  EXPECT_EQ(s.expects[0].op, ExpectDecl::Op::kLt);
  EXPECT_EQ(s.expects[1].op, ExpectDecl::Op::kLe);
  EXPECT_EQ(s.expects[2].op, ExpectDecl::Op::kGt);
  EXPECT_EQ(s.expects[3].op, ExpectDecl::Op::kGe);
  EXPECT_EQ(s.expects[4].op, ExpectDecl::Op::kEq);
  EXPECT_EQ(s.expects[5].op, ExpectDecl::Op::kNe);
}

TEST(ScenarioDirectives, TableMatchesDocsGrammar) {
  // docs/SCENARIO.md's fenced grammar blocks start each directive at
  // column 0 (continuation lines are indented); their first words must
  // name exactly the directives the parser's table holds.
  std::ifstream in(EMPLS_SCENARIO_DOC);
  ASSERT_TRUE(in) << EMPLS_SCENARIO_DOC;
  std::set<std::string> documented;
  bool in_block = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      in_block = !in_block;
    } else if (in_block && !line.empty() && line[0] != ' ') {
      documented.insert(line.substr(0, line.find_first_of(" =")));
    }
  }
  std::set<std::string> table;
  for (const ScenarioDirective& d : scenario_directives()) {
    EXPECT_TRUE(table.emplace(d.name).second) << "duplicate: " << d.name;
  }
  EXPECT_EQ(table, documented);
}

TEST(ScenarioDirectives, RouterGrammarListsTheParsersEngines) {
  // The `router` grammar line's engine= alternatives are the keywords
  // the parser picks from, in its order, then the sharded spelling.
  std::ifstream in(EMPLS_SCENARIO_DOC);
  ASSERT_TRUE(in) << EMPLS_SCENARIO_DOC;
  std::string line;
  while (std::getline(in, line) && line.rfind("router ", 0) != 0) {
  }
  const auto at = line.find("[engine=");
  ASSERT_NE(at, std::string::npos) << "no router grammar line";
  const auto begin = at + 8;
  std::string spec = line.substr(begin, line.find(' ', begin) - begin);
  ASSERT_EQ(spec.back(), ']');
  spec.pop_back();  // the option's own closing bracket
  std::vector<std::string> documented;
  for (std::size_t pos = 0; pos <= spec.size();) {
    const auto bar = std::min(spec.find('|', pos), spec.size());
    documented.push_back(spec.substr(pos, bar - pos));
    pos = bar + 1;
  }
  std::vector<std::string> parsed(kEngineNames.begin(), kEngineNames.end());
  parsed.emplace_back("sharded:<N>[:trie]");
  EXPECT_EQ(documented, parsed);
}

}  // namespace
}  // namespace empls::net
