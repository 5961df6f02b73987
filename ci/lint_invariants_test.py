#!/usr/bin/env python3
"""Unit tests for ci/lint_invariants.py.

Each rule gets at least one passing and one failing fixture, written as
miniature source trees in a temp directory, so a refactor of the linter
that silently stops catching a violation class fails here first. CI
additionally runs the linter against the real tree (must be clean) and
against seeded violations (must be dirty) — see .github/workflows/ci.yml.
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_invariants  # noqa: E402

# A minimal codec the snapshot-coverage rule resolves field names
# against; mentions `payload` but not `forgotten`.
CODEC = """
#include "snapshot/codec.h"
void Encode(const State& s) { Use(s.payload); }
"""


def run_lint(tree, rules=None):
    """Writes `tree` (rel path -> contents) into a temp root, runs the
    linter, returns (exit_code, findings)."""
    with tempfile.TemporaryDirectory() as root:
        for rel, content in tree.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(textwrap.dedent(content))
        files = lint_invariants.collect_files(root)
        findings = []
        for rule in (rules or lint_invariants.ALL_RULES):
            lint_invariants.CHECKS[rule](files, root, findings)
        return (1 if findings else 0), findings


def rules_of(findings):
    return {f.rule for f in findings}


class SnapshotCoverageTest(unittest.TestCase):
    RULE = ["snapshot-coverage"]

    def test_covered_and_allowlisted_members_pass(self):
        code, findings = run_lint({
            "src/core/widget.h": """
                class Widget {
                 public:
                  struct State { int payload = 0; };
                  State SaveState() const { return State{payload_}; }
                  void RestoreState(const State& s);
                 private:
                  int payload_ = 0;
                  int cache_ = 0;  // snapshot: derived
                };
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_member_missing_from_savestate_fails(self):
        code, findings = run_lint({
            "src/core/widget.h": """
                class Widget {
                 public:
                  struct State { int payload = 0; };
                  State SaveState() const { return State{payload_}; }
                 private:
                  int payload_ = 0;
                  int forgotten_ = 0;
                };
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("forgotten_", findings[0].message)

    def test_restore_state_in_cpp_counts_as_coverage(self):
        code, findings = run_lint({
            "src/core/widget.h": """
                class Widget {
                 public:
                  struct State { int payload = 0; };
                  State SaveState() const { return State{payload_}; }
                  void RestoreState(const State& s);
                 private:
                  int payload_ = 0;
                  int rebuilt_ = 0;
                };
                """,
            "src/core/widget.cpp": """
                #include "core/widget.h"
                void Widget::RestoreState(const State& s) {
                  payload_ = s.payload;
                  rebuilt_ = payload_ * 2;
                }
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_return_this_exempts_the_class(self):
        code, findings = run_lint({
            "src/stats/stats.h": """
                struct Stats {
                  using State = Stats;
                  State SaveState() const { return *this; }
                  int anything_ = 0;
                };
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_state_field_absent_from_codec_fails(self):
        code, findings = run_lint({
            "src/core/widget.h": """
                class Widget {
                 public:
                  struct State {
                    int payload = 0;
                    int forgotten = 0;
                  };
                  State SaveState() const {
                    return State{payload_, forgotten_};
                  }
                 private:
                  int payload_ = 0;
                  int forgotten_ = 0;
                };
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("forgotten", findings[0].message)
        self.assertIn("codec", findings[0].message)

    def test_assignment_in_inline_method_is_not_a_member(self):
        code, findings = run_lint({
            "src/core/widget.h": """
                class Widget {
                 public:
                  struct State { int payload = 0; };
                  State SaveState() const { return State{payload_}; }
                  void SetSink(int* sink) {
                    sink_ = sink;
                  }
                 private:
                  int payload_ = 0;
                  int* sink_ = nullptr;  // snapshot: derived
                };
                """,
            "src/snapshot/codec.cpp": CODEC,
        }, self.RULE)
        self.assertEqual(code, 0, findings)


class ErrorEnvelopeTest(unittest.TestCase):
    RULE = ["error-envelope"]

    def test_envelope_in_api_cpp_and_comments_pass(self):
        code, findings = run_lint({
            "src/server/api.cpp": """
                void MakeErrorResponse() {
                  response.Set("status", "error");
                }
                """,
            "src/server/other.cpp": """
                // The envelope is {"status":"error","error":{...}}.
                void Fine() {}
                """,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_hand_rolled_envelope_fails(self):
        code, findings = run_lint({
            "src/gateway/gw.cpp": """
                void Bad() { response.Set("status", "error"); }
                """,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), {"error-envelope"})


class MetricNamingTest(unittest.TestCase):
    RULE = ["metric-naming"]

    def test_camel_case_and_prometheus_renderer_pass(self):
        code, findings = run_lint({
            "src/core/sim.cpp": """
                auto& c = reg.GetCounter("sim.stepBatch.requests");
                """,
            "src/obs/registry.cpp": """
                auto& c = reg.GetCounter("legacy_total");
                """,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_snake_case_metric_fails(self):
        code, findings = run_lint({
            "src/core/sim.cpp": """
                auto& c = reg.GetCounter("sim.step_batch.requests");
                """,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), {"metric-naming"})


class MutexGuardTest(unittest.TestCase):
    RULE = ["mutex-guard"]

    def test_wrapped_mutex_with_guarded_by_passes(self):
        code, findings = run_lint({
            "src/common/sync.h": """
                class Mutex { std::mutex mu_; };
                """,
            "src/obs/reg.h": """
                class Registry {
                  mutable Mutex mutex_;
                  int counters_ GUARDED_BY(mutex_);
                };
                """,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_raw_std_mutex_outside_sync_fails(self):
        code, findings = run_lint({
            "src/obs/reg.h": """
                class Registry {
                  std::mutex mutex_;
                  int counters_ GUARDED_BY(mutex_);
                };
                """,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("std::mutex", findings[0].message)

    def test_mutex_member_without_guarded_by_fails(self):
        code, findings = run_lint({
            "src/obs/reg.h": """
                class Registry {
                  mutable Mutex mutex_;
                  int counters_;
                };
                """,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("GUARDED_BY", findings[0].message)


class CommandTableTest(unittest.TestCase):
    RULE = ["command-table"]
    TABLE = """
        constexpr CommandInfo kCommands[] = {{
            {kStep, "step", CommandClass::kSession},
            {kDeleteSession, "deleteSession", CommandClass::kSession},
        }};
        Command LookupCommand(std::string_view name) {
          for (const CommandInfo& info : kCommands) {
            if (info.name == name) return info.command;
          }
          return kUnknown;
        }
        """

    def test_enum_decisions_and_other_strings_pass(self):
        code, findings = run_lint({
            "src/server/commands.cpp": self.TABLE,
            "src/shard/router.cpp": """
                // Never write command == "step"; use the table.
                bool Delete(Command c) { return c == Command::kDeleteSession; }
                bool Delta(const std::string& e) { return e == "delta"; }
                json::Json Probe() { return MakeRequest(Command::kStep); }
                """,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_string_compared_with_command_name_fails(self):
        code, findings = run_lint({
            "src/server/commands.cpp": self.TABLE,
            "src/gateway/gw.cpp": """
                bool A(const std::string& command) { return command == "step"; }
                bool B(const json::Json& r) {
                  return "deleteSession" != r.GetString("command", "");
                }
                bool C(const json::Json& r) {
                  return r.GetString("command", "") == "deleteSession";
                }
                """,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(findings), {"command-table"})
        self.assertEqual(len(findings), 3, findings)

    def test_missing_table_fails(self):
        code, findings = run_lint({
            "src/gateway/gw.cpp": "void Fine() {}\n",
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("command table not found", findings[0].message)


class JsonRecordCoverageTest(unittest.TestCase):
    RULE = ["json-record-coverage"]
    RECORDS = {"src/config/cfg.h": ("src/config/cfg.cpp",
                                    ("Buffers", "Unit"))}
    HEADER = """
        struct Buffers {
          std::uint32_t robSize = 64;
          std::uint32_t fetchWidth = 4;  ///< see b.other
        };
        struct Unit {
          enum class Kind : std::uint8_t { kFx, kFp, kLs };
          Kind kind = Kind::kFx;
          struct Operation { int opClass = 0; };
          std::vector<Operation> operations;
          bool IsFx() const { return kind == Kind::kFx; }
        };
        """
    LIST = """
        constexpr auto UnitFields = [](auto& io, auto& u) {
          io.Enum("kind", u.kind, kKinds, "unknown kind");
          io.Records("operations", u.operations, OperationFields);
        };
        constexpr auto ConfigFields = [](auto& io, auto& c) {
          io.Object("buffers", c.buffers, [](auto& section, auto& b) {
            section.Field("robSize", b.robSize);
            section.Field("fetchWidth", b.fetchWidth);
          });
        };
        """

    def setUp(self):
        self.saved = lint_invariants.JSON_RECORDS
        lint_invariants.JSON_RECORDS = self.RECORDS

    def tearDown(self):
        lint_invariants.JSON_RECORDS = self.saved

    def test_listed_members_pass(self):
        code, findings = run_lint({
            "src/config/cfg.h": self.HEADER,
            "src/config/cfg.cpp": self.LIST,
        }, self.RULE)
        self.assertEqual(code, 0, findings)

    def test_member_named_only_as_a_key_fails(self):
        code, findings = run_lint({
            "src/config/cfg.h": self.HEADER,
            "src/config/cfg.cpp": self.LIST.replace(
                "b.fetchWidth", "b.robSize"),
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("'fetchWidth' of JSON record 'Buffers'",
                      findings[0].message)

    def test_missing_record_fails(self):
        code, findings = run_lint({
            "src/config/cfg.h": self.HEADER.replace("struct Unit",
                                                    "struct Renamed"),
            "src/config/cfg.cpp": self.LIST,
        }, self.RULE)
        self.assertEqual(code, 1)
        self.assertIn("'Unit' not found", findings[0].message)


class RealTreeTest(unittest.TestCase):
    """The linter must be clean on the repository it ships in."""

    def test_repo_is_clean(self):
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        if not os.path.isdir(os.path.join(root, "src")):
            self.skipTest("not running inside the repo")
        self.assertEqual(lint_invariants.main(["--root", root]), 0)


if __name__ == "__main__":
    unittest.main()
