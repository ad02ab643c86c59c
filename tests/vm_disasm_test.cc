// DisassembleChunk rendering plus the fused-compiler selection contract:
// function bodies that mention `__dift` compile onto the labelled opcodes,
// clean ones alias the call-lowered chunk (one compile, pointer-equal cache
// entries), and the lowered oracle flavor never contains a labelled opcode.
// A golden listing pins the lowering of try/catch/finally, classes and
// statically known errors.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/lang/ast.h"
#include "src/lang/parser.h"
#include "src/lang/resolve.h"
#include "src/vm/bytecode.h"
#include "src/vm/compiler.h"

namespace turnstile {
namespace {

constexpr const char* kSource = R"(
function sensitive(x) {
  let s = __dift.label(x, "secret");
  let ok = __dift.check(s, s);
  let t = __dift.binaryOp("+", s, "!");
  __dift.invoke(console, "log", [t, ok]);
  let out = { cache: 0 };
  out.cache = t;
  return out.cache;
}
function clean(a, b) {
  let pair = { left: a };
  pair.right = b;
  return pair.left + pair.right;
}
let result = sensitive("x") + clean(1, 2);
)";

// children[1] of a kFunctionDecl named `name`.
NodePtr FunctionBody(const NodePtr& root, const std::string& name) {
  for (const NodePtr& child : root->children) {
    if (child->kind == NodeKind::kFunctionDecl && child->str == name) {
      return child->children[1];
    }
  }
  return nullptr;
}

class VmDisasmTest : public testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseProgram(kSource);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    program_ = std::move(parsed).value();
    ResolveProgram(program_);
  }

  Program program_;
};

TEST_F(VmDisasmTest, SensitiveFunctionCompilesOntoLabelledOpcodes) {
  NodePtr body = FunctionBody(program_.root, "sensitive");
  ASSERT_NE(body, nullptr);
  std::string fused = vm::DisassembleChunk(*vm::GetOrCompileFunctionBodyFused(body));

  EXPECT_NE(fused.find("DiftGuard"), std::string::npos) << fused;
  EXPECT_NE(fused.find("CheckSink"), std::string::npos) << fused;
  EXPECT_NE(fused.find("BinaryLabelled"), std::string::npos) << fused;
  EXPECT_NE(fused.find("CallLabelled"), std::string::npos) << fused;
  EXPECT_NE(fused.find("GetPropLabelled"), std::string::npos) << fused;
  EXPECT_NE(fused.find("SetPropLabelled"), std::string::npos) << fused;
  // `__dift.label` is not a recognized fused shape: it stays a call so the
  // tracker's labelling span/audit behavior is untouched.
  EXPECT_NE(fused.find("\"label\""), std::string::npos) << fused;
}

TEST_F(VmDisasmTest, LoweredOracleNeverUsesLabelledOpcodes) {
  NodePtr body = FunctionBody(program_.root, "sensitive");
  ASSERT_NE(body, nullptr);
  std::string lowered = vm::DisassembleChunk(*vm::GetOrCompileFunctionBody(body));

  EXPECT_EQ(lowered.find("Labelled"), std::string::npos) << lowered;
  EXPECT_EQ(lowered.find("CheckSink"), std::string::npos) << lowered;
  EXPECT_EQ(lowered.find("DiftGuard"), std::string::npos) << lowered;
}

TEST_F(VmDisasmTest, CleanChunksAliasTheLoweredCompile) {
  NodePtr body = FunctionBody(program_.root, "clean");
  ASSERT_NE(body, nullptr);
  vm::ChunkPtr lowered = vm::GetOrCompileFunctionBody(body);
  vm::ChunkPtr fused = vm::GetOrCompileFunctionBodyFused(body);
  EXPECT_EQ(fused.get(), lowered.get());

  std::string listing = vm::DisassembleChunk(*fused);
  EXPECT_EQ(listing.find("Labelled"), std::string::npos) << listing;

  // The top level never mentions __dift either (function bodies are separate
  // compilation units), so the program chunk aliases too.
  vm::ChunkPtr program_lowered = vm::GetOrCompileProgram(program_.root);
  vm::ChunkPtr program_fused = vm::GetOrCompileProgramFused(program_.root);
  EXPECT_EQ(program_fused.get(), program_lowered.get());
}

TEST_F(VmDisasmTest, ListingRendersOperandsAndLines) {
  NodePtr body = FunctionBody(program_.root, "sensitive");
  ASSERT_NE(body, nullptr);
  std::string fused = vm::DisassembleChunk(*vm::GetOrCompileFunctionBodyFused(body));

  EXPECT_NE(fused.find("; chunk:"), std::string::npos) << fused;
  EXPECT_NE(fused.find("; line "), std::string::npos) << fused;
  EXPECT_NE(fused.find("atom(cache)"), std::string::npos) << fused;
  EXPECT_NE(fused.find("r0"), std::string::npos) << fused;
  // Constant-pool rendering ("secret" is a string constant of the chunk).
  EXPECT_NE(fused.find("const \"secret\""), std::string::npos) << fused;
}

// try/catch/finally, a class declaration and a statically invalid update.
constexpr const char* kTryClassSource =
    "class Point {\n"
    "  constructor(x) { this.x = x; }\n"
    "}\n"
    "for (let i = 0; i < 3; i++) {\n"
    "  try {\n"
    "    if (i === 1) { continue; }\n"
    "    break;\n"
    "  } catch (e) {\n"
    "    throw e;\n"
    "  } finally {\n"
    "    ++1;\n"
    "  }\n"
    "}\n";

// The program chunk declares the class with one kClass and runs the try
// statement with one kTry whose break/continue trampolines land on the loop
// exit (9) and the for-update (7). `let i = 0` stores its constant with no
// kSetFnName, since a number literal can never be a function. `i` stays in its header-frame slot
// because the try sub-chunk reads it, so the for-update is one kIncSlot and
// the loop test one kJumpUnless against a constant operand. The try, catch
// and finally blocks are sub-chunks of their own, where break/continue are
// kComplete and `++1` is a kRaise of the tree-walker's exact status.
constexpr const char* kTryClassGolden = R"(; chunk: 11 insns, 1 regs, 2 constants, 0 names, 2 nodes
   0  Class             node[0](ClassDecl)  ; line 1
   1  EnvPush           1  ; line 4
   2  LoadConst         r0, const "0"  ; line 4
   3  StoreSlot         0, 0, r0  ; line 4
   4  LoadSlot          r0, 0, 0  ; line 4
   5  JumpUnless        ->9, op(<), r0, const "3"  ; line 4
   6  Try               node[1](TryStmt), ->9, 0, 0, ->7, 0  ; line 5
   7  IncSlot           0, 0, 1  ; line 4
   8  Jump              ->4  ; line 4
   9  EnvPop              ; line 4
  10  Halt                ; line 1
-- try
; chunk: 5 insns, 1 regs, 1 constants, 0 names, 0 nodes
   0  LoadSlot          r0, 0, 0  ; line 6
   1  JumpUnless        ->3, op(===), r0, const "1"  ; line 6
   2  Complete          1  ; line 6
   3  Complete          0  ; line 7
   4  Halt                ; line 5
-- catch
; chunk: 3 insns, 1 regs, 0 constants, 0 names, 0 nodes
   0  LoadSlot          r0, 0, 0  ; line 9
   1  Throw             r0  ; line 9
   2  Halt                ; line 8
-- finally
; chunk: 2 insns, 1 regs, 0 constants, 1 names, 0 nodes
   0  Raise             RuntimeError, "TypeError: invalid update target"  ; line 11
   1  Halt                ; line 10
)";

TEST(VmDisasmGoldenTest, TryCatchFinallyAndClassLowering) {
  auto parsed = ParseProgram(kTryClassSource);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program program = std::move(parsed).value();
  ResolveProgram(program);

  std::string listing = vm::DisassembleChunk(*vm::GetOrCompileProgram(program.root));
  const NodePtr& loop_body = program.root->children[1]->children[3];
  ASSERT_EQ(loop_body->children.size(), 1u);
  const NodePtr& try_stmt = loop_body->children[0];
  ASSERT_EQ(try_stmt->kind, NodeKind::kTryStmt);
  const char* labels[] = {"try", nullptr, "catch", "finally"};
  for (size_t i : {0, 2, 3}) {
    listing += std::string("-- ") + labels[i] + "\n" +
               vm::DisassembleChunk(*vm::GetOrCompileFunctionBody(try_stmt->children[i]));
  }
  EXPECT_EQ(listing, kTryClassGolden);
}

// modbus's calibration sweep (src/corpus/corpus_data_b.cc), which runs no
// DIFT op. Nothing outside the function body names `cal`, `k` or `frame`,
// so all three live in registers: the parameter is copied out of its
// call-frame slot once, in the prologue, and the loop runs on register
// operands, number-constant operands, one compare-and-jump and one
// increment: six instructions per iteration (5..10), where the slot-based
// lowering took 19. The `let`s initialize from number literals, so neither
// is followed by a kSetFnName. The frames are still pushed (1, 3) at their
// resolved sizes; their slots just stay undefined.
constexpr const char* kCalibrationSource =
    "function calibrate(frame) {\n"
    "  let cal = 0;\n"
    "  for (let k = 0; k < 36000; k++) {\n"
    "    cal = (cal * 31 + k) % 65521;\n"
    "  }\n"
    "  return cal + frame;\n"
    "}\n";

constexpr const char* kCalibrationGolden = R"(; chunk: 16 insns, 5 regs, 5 constants, 0 names, 0 nodes
   0  LoadSlot          r2, 0, 1  ; line 1
   1  EnvPush           1  ; line 1
   2  LoadConst         r0, const "0"  ; line 2
   3  EnvPush           1  ; line 3
   4  LoadConst         r1, const "0"  ; line 3
   5  JumpUnless        ->11, op(<), r1, const "36000"  ; line 3
   6  Binary            r4, op(*), r0, const "31"  ; line 4
   7  Binary            r3, op(+), r4, r1  ; line 4
   8  Binary            r0, op(%), r3, const "65521"  ; line 4
   9  IncLocal          r1, 1  ; line 3
  10  Jump              ->5  ; line 3
  11  EnvPop              ; line 3
  12  Binary            r3, op(+), r0, r2  ; line 6
  13  Return            r3  ; line 6
  14  EnvPop              ; line 1
  15  Halt                ; line 1
)";

TEST(VmDisasmGoldenTest, CalibrationLoopRunsOnRegisterLocals) {
  auto parsed = ParseProgram(kCalibrationSource);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program program = std::move(parsed).value();
  ResolveProgram(program);
  const NodePtr& fn = program.root->children[0];
  ASSERT_EQ(fn->kind, NodeKind::kFunctionDecl);

  // Parameters are passed as the VM passes them (Interpreter::CallFunction).
  vm::ChunkPtr chunk = vm::GetOrCompileFunctionBody(fn->children[1], fn->children[0]->children);
  EXPECT_EQ(vm::DisassembleChunk(*chunk), kCalibrationGolden);

  // One iteration runs from the loop test to the back jump, inclusive.
  size_t head = 0;
  size_t back = 0;
  for (size_t pc = 0; pc < chunk->code.size(); ++pc) {
    if (chunk->code[pc].op == vm::Op::kJumpUnless) {
      head = pc;
    }
    if (chunk->code[pc].op == vm::Op::kJump && static_cast<size_t>(chunk->code[pc].a) == head) {
      back = pc;
    }
  }
  ASSERT_GT(back, head);
  EXPECT_LE(back - head + 1, 6u);
}

}  // namespace
}  // namespace turnstile
