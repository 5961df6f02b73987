// Per-instruction semantics tests (the paper: "each instruction has its
// own test to verify its correct behavior", checking state at the end of
// the simulation). Each case is a tiny program whose result lands in a
// register; the parameterized suite runs every case through the
// golden-model ISS, and a second suite replays them on the OoO core to
// pin both execution paths to the same table.
#include <gtest/gtest.h>

#include "isa/instruction_set.h"
#include "isa/instruction_set_json.h"
#include "isa/pseudo.h"
#include "isa/register_file_info.h"
#include "test_util.h"

namespace rvss {
namespace {

using testutil::Reg;
using testutil::RunOnIss;

struct SemanticsCase {
  const char* name;        // test label (instruction under test)
  const char* body;        // assembly; result expected in a0 (x10)
  std::int64_t expected;   // expected signed value of a0
};

std::ostream& operator<<(std::ostream& os, const SemanticsCase& c) {
  return os << c.name;
}

class InstructionSemantics : public ::testing::TestWithParam<SemanticsCase> {};

TEST_P(InstructionSemantics, IssMatchesExpectation) {
  const SemanticsCase& c = GetParam();
  std::string source = std::string(".text\nmain:\n") + c.body + "\n    ret\n";
  auto run = RunOnIss(source, "main");
  ASSERT_NE(run.interp, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(
                static_cast<std::int32_t>(run.interp->ReadIntReg(10))),
            c.expected)
      << source;
}

TEST_P(InstructionSemantics, CoreMatchesExpectation) {
  const SemanticsCase& c = GetParam();
  std::string source = std::string(".text\nmain:\n") + c.body + "\n    ret\n";
  auto sim = testutil::RunOnCore(source, config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(core::SimStatus::kFinished, sim->status());
  EXPECT_EQ(static_cast<std::int64_t>(
                static_cast<std::int32_t>(sim->ReadIntReg(10))),
            c.expected)
      << source;
}

const SemanticsCase kCases[] = {
    // ---- RV32I register-register ----
    {"add", "li a1, 40\n li a2, 2\n add a0, a1, a2", 42},
    {"add_overflow", "li a1, 0x7fffffff\n li a2, 1\n add a0, a1, a2",
     -2147483648LL},
    {"sub", "li a1, 10\n li a2, 42\n sub a0, a1, a2", -32},
    {"sll", "li a1, 3\n li a2, 4\n sll a0, a1, a2", 48},
    {"sll_masked", "li a1, 1\n li a2, 33\n sll a0, a1, a2", 2},
    {"slt_true", "li a1, -5\n li a2, 3\n slt a0, a1, a2", 1},
    {"slt_false", "li a1, 3\n li a2, -5\n slt a0, a1, a2", 0},
    {"sltu", "li a1, -1\n li a2, 1\n sltu a0, a1, a2", 0},
    {"xor", "li a1, 0b1100\n li a2, 0b1010\n xor a0, a1, a2", 6},
    {"srl", "li a1, -16\n li a2, 2\n srl a0, a1, a2", 0x3ffffffc},
    {"sra", "li a1, -16\n li a2, 2\n sra a0, a1, a2", -4},
    {"or", "li a1, 0b1100\n li a2, 0b1010\n or a0, a1, a2", 14},
    {"and", "li a1, 0b1100\n li a2, 0b1010\n and a0, a1, a2", 8},
    // ---- RV32I immediates ----
    {"addi", "li a1, 40\n addi a0, a1, 2", 42},
    {"addi_neg", "li a1, 40\n addi a0, a1, -50", -10},
    {"slti", "li a1, -4\n slti a0, a1, -3", 1},
    {"sltiu_minus1", "li a1, 5\n sltiu a0, a1, -1", 1},
    {"xori_not", "li a1, 0\n xori a0, a1, -1", -1},
    {"ori", "li a1, 0x0f\n ori a0, a1, 0x30", 0x3f},
    {"andi", "li a1, 0xff\n andi a0, a1, 0x0f", 0x0f},
    {"slli", "li a1, 5\n slli a0, a1, 3", 40},
    {"srli", "li a1, -1\n srli a0, a1, 28", 0xf},
    {"srai", "li a1, -64\n srai a0, a1, 3", -8},
    {"lui", "lui a0, 0x12345", 0x12345000},
    {"lui_negative", "lui a0, 0xfffff", -4096},
    {"auipc", "auipc a0, 1\n addi a0, a0, 0", 0x1000},
    // ---- control flow ----
    {"beq_taken", "li a0, 1\n li a1, 7\n li a2, 7\n beq a1, a2,  L1\n li a0, 0\nL1:", 1},
    {"bne_not_taken", "li a0, 1\n li a1, 7\n li a2, 7\n bne a1, a2,  L1\n li a0, 2\nL1:", 2},
    {"blt_signed", "li a0, 0\n li a1, -1\n li a2, 1\n blt a1, a2,  L1\n li a0, 9\nL1:", 0},
    {"bge_equal", "li a0, 0\n li a1, 5\n li a2, 5\n bge a1, a2,  L1\n li a0, 9\nL1:", 0},
    {"bltu_unsigned", "li a0, 0\n li a1, -1\n li a2, 1\n bltu a1, a2,  L1\n li a0, 9\nL1:", 9},
    {"bgeu_unsigned", "li a0, 0\n li a1, -1\n li a2, 1\n bgeu a1, a2,  L1\n li a0, 9\nL1:", 0},
    {"jal_link", "jal a0,  L1\nL1:", 4},
    {"jalr_link",
     "la a1,  L1\n jalr a0, a1, 0\n li a0, 99\nL1:\n addi a0, a0, 0", 12},
    // ---- loads & stores (data section) ----
    {"lw_sw", ".data\nv: .word 0\n.text\n li a1, 1234\n la a2, v\n sw a1, 0(a2)\n lw a0, 0(a2)",
     1234},
    {"lb_sign", ".data\nv: .byte 0x80\n.text\n la a2, v\n lb a0, 0(a2)", -128},
    {"lbu_zero", ".data\nv: .byte 0x80\n.text\n la a2, v\n lbu a0, 0(a2)", 128},
    {"lh_sign", ".data\nv: .hword 0x8000\n.text\n la a2, v\n lh a0, 0(a2)",
     -32768},
    {"lhu_zero", ".data\nv: .hword 0x8000\n.text\n la a2, v\n lhu a0, 0(a2)",
     32768},
    {"sb_truncates",
     ".data\nv: .word -1\n.text\n la a2, v\n li a1, 0\n sb a1, 0(a2)\n lw a0, 0(a2)",
     -256},
    {"sh_truncates",
     ".data\nv: .word -1\n.text\n la a2, v\n li a1, 0\n sh a1, 0(a2)\n lw a0, 0(a2)",
     -65536},
    // ---- M extension ----
    {"mul", "li a1, -7\n li a2, 6\n mul a0, a1, a2", -42},
    {"mulh", "li a1, -1\n li a2, -1\n mulh a0, a1, a2", 0},
    {"mulh_big", "li a1, 0x40000000\n li a2, 4\n mulh a0, a1, a2", 1},
    {"mulhu", "li a1, -1\n li a2, -1\n mulhu a0, a1, a2", -2},
    {"mulhsu", "li a1, -1\n li a2, -1\n mulhsu a0, a1, a2", -1},
    {"div", "li a1, -7\n li a2, 2\n div a0, a1, a2", -3},
    {"div_by_zero", "li a1, 7\n li a2, 0\n div a0, a1, a2", -1},
    {"div_overflow", "li a1, 0x80000000\n li a2, -1\n div a0, a1, a2",
     -2147483648LL},
    {"divu", "li a1, -2\n li a2, 2\n divu a0, a1, a2", 0x7fffffff},
    {"divu_by_zero", "li a1, 7\n li a2, 0\n divu a0, a1, a2", -1},
    {"rem", "li a1, -7\n li a2, 2\n rem a0, a1, a2", -1},
    {"rem_by_zero", "li a1, 7\n li a2, 0\n rem a0, a1, a2", 7},
    {"rem_overflow", "li a1, 0x80000000\n li a2, -1\n rem a0, a1, a2", 0},
    {"remu", "li a1, 7\n li a2, 3\n remu a0, a1, a2", 1},
    // ---- F extension (results observed through integer conversions) ----
    {"fadd_s",
     "li a1, 3\n fcvt.s.w fa1, a1\n li a2, 4\n fcvt.s.w fa2, a2\n"
     " fadd.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 7},
    {"fsub_s",
     "li a1, 3\n fcvt.s.w fa1, a1\n li a2, 5\n fcvt.s.w fa2, a2\n"
     " fsub.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", -2},
    {"fmul_s",
     "li a1, -3\n fcvt.s.w fa1, a1\n li a2, 6\n fcvt.s.w fa2, a2\n"
     " fmul.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", -18},
    {"fdiv_s",
     "li a1, 42\n fcvt.s.w fa1, a1\n li a2, 6\n fcvt.s.w fa2, a2\n"
     " fdiv.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 7},
    {"fsqrt_s",
     "li a1, 81\n fcvt.s.w fa1, a1\n fsqrt.s fa0, fa1\n fcvt.w.s a0, fa0, rtz",
     9},
    {"fmadd_s",
     "li a1, 2\n fcvt.s.w fa1, a1\n li a2, 3\n fcvt.s.w fa2, a2\n"
     " li a3, 4\n fcvt.s.w fa3, a3\n fmadd.s fa0, fa1, fa2, fa3\n"
     " fcvt.w.s a0, fa0, rtz", 10},
    {"fmsub_s",
     "li a1, 2\n fcvt.s.w fa1, a1\n li a2, 3\n fcvt.s.w fa2, a2\n"
     " li a3, 4\n fcvt.s.w fa3, a3\n fmsub.s fa0, fa1, fa2, fa3\n"
     " fcvt.w.s a0, fa0, rtz", 2},
    {"fnmadd_s",
     "li a1, 2\n fcvt.s.w fa1, a1\n li a2, 3\n fcvt.s.w fa2, a2\n"
     " li a3, 4\n fcvt.s.w fa3, a3\n fnmadd.s fa0, fa1, fa2, fa3\n"
     " fcvt.w.s a0, fa0, rtz", -10},
    {"fnmsub_s",
     "li a1, 2\n fcvt.s.w fa1, a1\n li a2, 3\n fcvt.s.w fa2, a2\n"
     " li a3, 4\n fcvt.s.w fa3, a3\n fnmsub.s fa0, fa1, fa2, fa3\n"
     " fcvt.w.s a0, fa0, rtz", -2},
    {"fsgnj_s",
     "li a1, 5\n fcvt.s.w fa1, a1\n li a2, -1\n fcvt.s.w fa2, a2\n"
     " fsgnj.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", -5},
    {"fsgnjn_s",
     "li a1, 5\n fcvt.s.w fa1, a1\n li a2, -1\n fcvt.s.w fa2, a2\n"
     " fsgnjn.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 5},
    {"fsgnjx_s",
     "li a1, -5\n fcvt.s.w fa1, a1\n li a2, -1\n fcvt.s.w fa2, a2\n"
     " fsgnjx.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 5},
    {"fmin_s",
     "li a1, 5\n fcvt.s.w fa1, a1\n li a2, -3\n fcvt.s.w fa2, a2\n"
     " fmin.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", -3},
    {"fmax_s",
     "li a1, 5\n fcvt.s.w fa1, a1\n li a2, -3\n fcvt.s.w fa2, a2\n"
     " fmax.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 5},
    {"feq_s", "li a1, 4\n fcvt.s.w fa1, a1\n fcvt.s.w fa2, a1\n feq.s a0, fa1, fa2", 1},
    {"flt_s", "li a1, 3\n fcvt.s.w fa1, a1\n li a2, 4\n fcvt.s.w fa2, a2\n flt.s a0, fa1, fa2", 1},
    {"fle_s", "li a1, 4\n fcvt.s.w fa1, a1\n fcvt.s.w fa2, a1\n fle.s a0, fa1, fa2", 1},
    {"fclass_s_zero", "fmv.w.x fa1, x0\n fclass.s a0, fa1", 1 << 4},
    {"fmv_x_w", "li a1, 1\n fcvt.s.w fa1, a1\n fmv.x.w a0, fa1", 0x3f800000},
    {"fmv_w_x_roundtrip", "li a1, 0x40490fdb\n fmv.w.x fa1, a1\n fmv.x.w a0, fa1",
     0x40490fdb},
    {"fcvt_wu_s", "li a1, 3\n fcvt.s.wu fa1, a1\n fcvt.wu.s a0, fa1, rtz", 3},
    {"fcvt_w_s_truncates",
     "li a1, 7\n fcvt.s.w fa1, a1\n li a2, 2\n fcvt.s.w fa2, a2\n"
     " fdiv.s fa0, fa1, fa2\n fcvt.w.s a0, fa0, rtz", 3},
    {"flw_fsw",
     ".data\nv: .float 2.5\nw: .word 0\n.text\n la a1, v\n flw fa0, 0(a1)\n"
     " la a2, w\n fsw fa0, 0(a2)\n lw a0, 0(a2)", 0x40200000},
    // ---- D extension ----
    {"fadd_d",
     "li a1, 3\n fcvt.d.w fa1, a1\n li a2, 4\n fcvt.d.w fa2, a2\n"
     " fadd.d fa0, fa1, fa2\n fcvt.w.d a0, fa0, rtz", 7},
    {"fsub_d",
     "li a1, 3\n fcvt.d.w fa1, a1\n li a2, 5\n fcvt.d.w fa2, a2\n"
     " fsub.d fa0, fa1, fa2\n fcvt.w.d a0, fa0, rtz", -2},
    {"fmul_d",
     "li a1, -3\n fcvt.d.w fa1, a1\n li a2, 6\n fcvt.d.w fa2, a2\n"
     " fmul.d fa0, fa1, fa2\n fcvt.w.d a0, fa0, rtz", -18},
    {"fdiv_d",
     "li a1, 42\n fcvt.d.w fa1, a1\n li a2, 6\n fcvt.d.w fa2, a2\n"
     " fdiv.d fa0, fa1, fa2\n fcvt.w.d a0, fa0, rtz", 7},
    {"fsqrt_d",
     "li a1, 144\n fcvt.d.w fa1, a1\n fsqrt.d fa0, fa1\n fcvt.w.d a0, fa0, rtz",
     12},
    {"fmadd_d",
     "li a1, 2\n fcvt.d.w fa1, a1\n li a2, 3\n fcvt.d.w fa2, a2\n"
     " li a3, 4\n fcvt.d.w fa3, a3\n fmadd.d fa0, fa1, fa2, fa3\n"
     " fcvt.w.d a0, fa0, rtz", 10},
    {"fmin_d",
     "li a1, 5\n fcvt.d.w fa1, a1\n li a2, -3\n fcvt.d.w fa2, a2\n"
     " fmin.d fa0, fa1, fa2\n fcvt.w.d a0, fa0, rtz", -3},
    {"feq_d", "li a1, 4\n fcvt.d.w fa1, a1\n fcvt.d.w fa2, a1\n feq.d a0, fa1, fa2", 1},
    {"flt_d", "li a1, 3\n fcvt.d.w fa1, a1\n li a2, 4\n fcvt.d.w fa2, a2\n flt.d a0, fa1, fa2", 1},
    {"fle_d", "li a1, 4\n fcvt.d.w fa1, a1\n fcvt.d.w fa2, a1\n fle.d a0, fa1, fa2", 1},
    {"fclass_d_normal", "li a1, 3\n fcvt.d.w fa1, a1\n fclass.d a0, fa1", 1 << 6},
    {"fcvt_s_d",
     "li a1, 9\n fcvt.d.w fa1, a1\n fcvt.s.d fa0, fa1\n fcvt.w.s a0, fa0, rtz",
     9},
    {"fcvt_d_s",
     "li a1, 9\n fcvt.s.w fa1, a1\n fcvt.d.s fa0, fa1\n fcvt.w.d a0, fa0, rtz",
     9},
    {"fld_fsd",
     ".data\nv: .double 1.5\nw: .zero 8\n.text\n la a1, v\n fld fa0, 0(a1)\n"
     " la a2, w\n fsd fa0, 0(a2)\n lw a0, 4(a2)", 0x3ff80000},
    // ---- pseudo-instructions ----
    {"li_large", "li a0, 0x12345678", 0x12345678},
    {"li_negative_large", "li a0, -123456", -123456},
    {"mv", "li a1, 17\n mv a0, a1", 17},
    {"not", "li a1, 0\n not a0, a1", -1},
    {"neg", "li a1, 42\n neg a0, a1", -42},
    {"seqz", "li a1, 0\n seqz a0, a1", 1},
    {"snez", "li a1, 3\n snez a0, a1", 1},
    {"sltz", "li a1, -3\n sltz a0, a1", 1},
    {"sgtz", "li a1, 3\n sgtz a0, a1", 1},
    {"beqz", "li a0, 1\n li a1, 0\n beqz a1,  L1\n li a0, 0\nL1:", 1},
    {"bnez", "li a0, 1\n li a1, 2\n bnez a1,  L1\n li a0, 0\nL1:", 1},
    {"blez", "li a0, 1\n li a1, 0\n blez a1,  L1\n li a0, 0\nL1:", 1},
    {"bgez", "li a0, 1\n li a1, 0\n bgez a1,  L1\n li a0, 0\nL1:", 1},
    {"bltz", "li a0, 1\n li a1, -1\n bltz a1,  L1\n li a0, 0\nL1:", 1},
    {"bgtz", "li a0, 1\n li a1, 1\n bgtz a1,  L1\n li a0, 0\nL1:", 1},
    {"bgt", "li a0, 1\n li a1, 2\n li a2, 1\n bgt a1, a2,  L1\n li a0, 0\nL1:", 1},
    {"ble", "li a0, 1\n li a1, 1\n li a2, 1\n ble a1, a2,  L1\n li a0, 0\nL1:", 1},
    {"j", "li a0, 5\n j  L1\n li a0, 9\nL1:", 5},
    {"fneg_s", "li a1, 8\n fcvt.s.w fa1, a1\n fneg.s fa0, fa1\n fcvt.w.s a0, fa0, rtz", -8},
    {"fabs_s", "li a1, -8\n fcvt.s.w fa1, a1\n fabs.s fa0, fa1\n fcvt.w.s a0, fa0, rtz", 8},
    // ---- fence / nop behave as no-ops ----
    {"fence_nop", "li a0, 3\n fence\n nop\n addi a0, a0, 1", 4},
};

INSTANTIATE_TEST_SUITE_P(Rv32Imfd, InstructionSemantics,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<SemanticsCase>& info) {
                           return std::string(info.param.name);
                         });

// ---- instruction table sanity -------------------------------------------

TEST(InstructionSet, EveryDefinitionCompiles) {
  for (const isa::InstructionDescription& def :
       isa::InstructionSet::Default().all()) {
    auto compiled = expr::Expression::Compile(def.interpretableAs, def);
    EXPECT_TRUE(compiled.ok())
        << def.name << ": "
        << (compiled.ok() ? "" : compiled.error().ToText());
  }
}

TEST(InstructionSet, LookupFindsEveryInstruction) {
  const isa::InstructionSet& set = isa::InstructionSet::Default();
  for (const isa::InstructionDescription& def : set.all()) {
    EXPECT_EQ(set.Find(def.name), &def);
  }
  EXPECT_EQ(set.Find("no.such.instruction"), nullptr);
}

TEST(InstructionSet, JsonRoundTripPreservesEveryDefinition) {
  const isa::InstructionSet& set = isa::InstructionSet::Default();
  json::Json dumped = isa::ToJson(set);
  auto reparsed = json::Parse(dumped.Dump());
  ASSERT_TRUE(reparsed.ok());
  auto rebuilt = isa::InstructionSetFromJson(reparsed.value());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().ToText();
  ASSERT_EQ(rebuilt.value().all().size(), set.all().size());
  for (std::size_t i = 0; i < set.all().size(); ++i) {
    const auto& a = set.all()[i];
    const auto& b = rebuilt.value().all()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.interpretableAs, b.interpretableAs);
    EXPECT_EQ(a.args.size(), b.args.size());
    EXPECT_EQ(a.opClass, b.opClass);
    EXPECT_EQ(a.mem.isLoad, b.mem.isLoad);
    EXPECT_EQ(a.mem.sizeBytes, b.mem.sizeBytes);
  }
}

TEST(InstructionSet, JsonByteOutsideItsFieldIsRefused) {
  // sizeBytes and flops are one byte each: 260 once read as 4.
  const auto read = [](const std::string& fields) {
    return isa::InstructionFromJson(
        json::Parse(R"({"name": "x", "interpretableAs": "",)" + fields + "}")
            .value());
  };
  auto size = read(R"("memory": {"isLoad": true, "sizeBytes": 260})");
  ASSERT_FALSE(size.ok());
  EXPECT_EQ(size.error().kind, ErrorKind::kParse);
  EXPECT_EQ(size.error().message,
            "memory.sizeBytes: 260 is out of range [0, 255]");
  auto flops = read(R"("flops": 260)");
  ASSERT_FALSE(flops.ok());
  EXPECT_EQ(flops.error().message, "flops: 260 is out of range [0, 255]");
  auto widest = read(R"("flops": 255)");
  ASSERT_TRUE(widest.ok()) << widest.error().ToText();
  EXPECT_EQ(widest.value().flops, 255);
}

TEST(InstructionSet, CustomJsonInstructionExecutes) {
  // The paper's extensibility claim: define a new instruction in JSON and
  // run it. "addx3" computes rs1 + 3*rs2.
  const char* definition = R"({
    "name": "addx3",
    "instructionType": "kArithmetic",
    "opClass": "kIntAlu",
    "arguments": [
      {"name": "rd", "type": "kInt", "writeBack": true},
      {"name": "rs1", "type": "kInt"},
      {"name": "rs2", "type": "kInt"}
    ],
    "interpretableAs": "\\rs1 \\rs2 3 * + \\rd ="
  })";
  auto node = json::Parse(definition);
  ASSERT_TRUE(node.ok());
  auto def = isa::InstructionFromJson(node.value());
  ASSERT_TRUE(def.ok()) << def.error().ToText();

  std::vector<isa::InstructionDescription> defs =
      isa::InstructionSet::Default().all();
  defs.push_back(def.value());
  isa::InstructionSet extended(std::move(defs));

  config::CpuConfig config = config::DefaultConfig();
  memory::MainMemory memory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(
      "main:\n li a1, 10\n li a2, 4\n addx3 a0, a1, a2\n ret\n", {}, config,
      memory, "main", extended);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  ref::Interpreter interp(loaded.value().program, memory);
  interp.InitRegisters(loaded.value().initialSp);
  EXPECT_EQ(interp.Run(), ref::ExitReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(interp.ReadIntReg(10)), 22);
}

TEST(RegisterNames, ParsesMachineAndAbiNames) {
  auto x5 = isa::ParseRegisterName("x5");
  ASSERT_TRUE(x5.has_value());
  EXPECT_EQ(x5->index, 5);
  EXPECT_EQ(x5->kind, isa::RegisterKind::kInt);

  auto t0 = isa::ParseRegisterName("t0");
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->index, 5);  // t0 == x5

  auto fa0 = isa::ParseRegisterName("fa0");
  ASSERT_TRUE(fa0.has_value());
  EXPECT_EQ(fa0->kind, isa::RegisterKind::kFp);
  EXPECT_EQ(fa0->index, 10);

  EXPECT_EQ(isa::ParseRegisterName("fp")->index, 8);
  EXPECT_FALSE(isa::ParseRegisterName("x32").has_value());
  EXPECT_FALSE(isa::ParseRegisterName("q3").has_value());
}

TEST(RegisterNames, AbiNameRoundTrip) {
  for (std::uint8_t i = 0; i < 32; ++i) {
    for (auto kind : {isa::RegisterKind::kInt, isa::RegisterKind::kFp}) {
      const isa::RegisterId id{kind, i};
      auto parsed = isa::ParseRegisterName(isa::RegisterAbiName(id));
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(*parsed, id);
      auto machine = isa::ParseRegisterName(isa::RegisterName(id));
      ASSERT_TRUE(machine.has_value());
      EXPECT_EQ(*machine, id);
    }
  }
}

TEST(Pseudo, RejectsWrongOperandCounts) {
  auto result = isa::ExpandPseudoInstruction("mv", {"a0"});
  EXPECT_FALSE(result.ok());
  auto ret = isa::ExpandPseudoInstruction("ret", {"a0"});
  EXPECT_FALSE(ret.ok());
}

TEST(Pseudo, LiExpandsByImmediateSize) {
  auto small = isa::ExpandPseudoInstruction("li", {"a0", "42"});
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().size(), 1u);
  EXPECT_EQ(small.value()[0].mnemonic, "addi");

  auto large = isa::ExpandPseudoInstruction("li", {"a0", "0x12345678"});
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.value().size(), 2u);
  EXPECT_EQ(large.value()[0].mnemonic, "lui");
  EXPECT_EQ(large.value()[1].mnemonic, "addi");
}

}  // namespace
}  // namespace rvss
