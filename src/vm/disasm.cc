// Renders compiled chunks for inspection (`profile_app --disasm`, tests).
//
// One line per instruction:
//
//     12  GetProp          r2, r1, atom(payload)              ; line 7
//
// Operand rendering is driven by a per-opcode spec string — one character per
// used operand — so the disassembly stays honest as the ISA grows: an opcode
// without a spec renders all six raw fields, which is ugly enough to notice
// in the golden test.

#include <cstdio>
#include <string>

#include "src/interp/interp.h"
#include "src/interp/value.h"
#include "src/lang/ast.h"
#include "src/lang/atoms.h"
#include "src/vm/bytecode.h"

namespace turnstile {
namespace vm {

namespace {

// Operand spec characters:
//   r  register            a  atom (interned; rendered via AtomName)
//   v  value operand (a register, or ~k for constants[k])
//   n  Chunk::names index  k  Chunk::constants index
//   j  jump target (pc)    d  Chunk::nodes index
//   i  plain integer       b  BinaryOp    u  UnaryOp
//   s  StatusCode
//   .  unused (skip)
const char* OperandSpec(Op op) {
  switch (op) {
    case Op::kLoadConst:        return "rk";
    case Op::kMove:             return "rr";
    case Op::kLoadSlot:         return "rii";
    case Op::kStoreSlot:        return "iir";
    case Op::kLoadGlobal:       return "ran";
    case Op::kLoadGlobalSoft:   return "ra";
    case Op::kStoreGlobal:      return "ar";
    case Op::kLoadDyn:          return "ran";
    case Op::kLoadDynSoft:      return "ra";
    case Op::kStoreDyn:         return "ar";
    case Op::kDefineCur:        return "ar";
    case Op::kLoadThisDyn:      return "ra";
    case Op::kSetFnName:        return "rn";
    case Op::kBinary:           return "rbvv";
    case Op::kAddSlot:          return "riirr";
    case Op::kAddReg:           return "rv";
    case Op::kIncLocal:         return "ri";
    case Op::kIncSlot:          return "iii";
    case Op::kUnary:            return "rur";
    case Op::kTypeof:           return "rr";
    case Op::kJump:             return "j";
    case Op::kJumpIfFalse:      return "jr";
    case Op::kJumpIfTrue:       return "jr";
    case Op::kJumpIfNullish:    return "jr";
    case Op::kJumpIfNotNullish: return "jr";
    case Op::kJumpUnless:       return "jbvv";
    case Op::kGetProp:          return "rra";
    case Op::kGetPropName:      return "rrn";
    case Op::kGetIndex:         return "rrr";
    case Op::kSetProp:          return "rar";
    case Op::kSetPropName:      return "rnr";
    case Op::kSetIndex:         return "rrr";
    case Op::kDeleteProp:       return "rn";
    case Op::kDeleteIndex:      return "rr";
    case Op::kObjNew:           return "r";
    case Op::kObjSetAtom:       return "rar";
    case Op::kObjSetName:       return "rnr";
    case Op::kObjSetComputed:   return "rrr";
    case Op::kArray:            return "rri";
    case Op::kArrayV:           return "r";
    case Op::kArgStart:         return "";
    case Op::kArgPush:          return "r";
    case Op::kArgSpread:        return "ri";
    case Op::kCall:             return "rrrrin";
    case Op::kCallV:            return "rrr..n";
    case Op::kNew:              return "rrri";
    case Op::kNewV:             return "rr";
    case Op::kClosure:          return "rd";
    case Op::kEnvPush:          return "i";
    case Op::kEnvPop:           return "";
    case Op::kEnvPopN:          return "i";
    case Op::kIterNew:          return ".r";
    case Op::kIterNext:         return "jr";
    case Op::kIterPop:          return "";
    case Op::kDiftGuard:        return "rana";
    case Op::kBinaryLabelled:   return "rbvvrn";
    case Op::kCheckSink:        return "rrrr";
    case Op::kCallLabelled:     return "rrrirn";
    case Op::kGetPropLabelled:  return "rra";
    case Op::kSetPropLabelled:  return "rar";
    case Op::kTry:              return "djiiji";
    case Op::kClass:            return "d";
    case Op::kRaise:            return "sn";
    case Op::kAwait:            return "rr";
    case Op::kThrow:            return "r";
    case Op::kReturn:           return "r";
    case Op::kHalt:             return "";
    case Op::kHaltValue:        return "r";
    case Op::kComplete:         return "i";
  }
  return nullptr;
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:      return "+";
    case BinaryOp::kSub:      return "-";
    case BinaryOp::kMul:      return "*";
    case BinaryOp::kDiv:      return "/";
    case BinaryOp::kMod:      return "%";
    case BinaryOp::kPow:      return "**";
    case BinaryOp::kLooseEq:  return "==";
    case BinaryOp::kLooseNe:  return "!=";
    case BinaryOp::kStrictEq: return "===";
    case BinaryOp::kStrictNe: return "!==";
    case BinaryOp::kLt:       return "<";
    case BinaryOp::kGt:       return ">";
    case BinaryOp::kLe:       return "<=";
    case BinaryOp::kGe:       return ">=";
    case BinaryOp::kBitAnd:   return "&";
    case BinaryOp::kBitOr:    return "|";
    case BinaryOp::kBitXor:   return "^";
    case BinaryOp::kShl:      return "<<";
    case BinaryOp::kShr:      return ">>";
    case BinaryOp::kIn:       return "in";
    case BinaryOp::kInvalid:  return "<invalid>";
  }
  return "<invalid>";
}

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:    return "!";
    case UnaryOp::kNeg:    return "-";
    case UnaryOp::kPlus:   return "+";
    case UnaryOp::kBitNot: return "~";
  }
  return "<invalid>";
}

// Quoted, escaped, truncated rendering for names/constants so one giant
// diagnostic string cannot wreck the listing.
std::string QuoteClip(const std::string& s) {
  constexpr size_t kMax = 40;
  std::string out = "\"";
  for (size_t i = 0; i < s.size() && i < kMax; ++i) {
    char ch = s[i];
    if (ch == '\n') {
      out += "\\n";
    } else if (ch == '"') {
      out += "\\\"";
    } else {
      out += ch;
    }
  }
  if (s.size() > kMax) {
    out += "...";
  }
  out += "\"";
  return out;
}

std::string RenderOperand(const Chunk& chunk, char kind, int32_t value) {
  switch (kind) {
    case 'r':
      // Negative register operands are "absent" markers (kCall's this-slot).
      return value < 0 ? "_" : "r" + std::to_string(value);
    case 'v':
      return value >= 0 ? "r" + std::to_string(value) : RenderOperand(chunk, 'k', ~value);
    case 'a':
      return "atom(" + AtomName(static_cast<Atom>(value)) + ")";
    case 'n': {
      size_t idx = static_cast<size_t>(value);
      return idx < chunk.names.size() ? QuoteClip(chunk.names[idx])
                                      : "names[" + std::to_string(value) + "?]";
    }
    case 'k': {
      size_t idx = static_cast<size_t>(value);
      return idx < chunk.constants.size()
                 ? "const " + QuoteClip(chunk.constants[idx].ToDisplayString())
                 : "constants[" + std::to_string(value) + "?]";
    }
    case 'j':
      return "->" + std::to_string(value);
    case 'd': {
      size_t idx = static_cast<size_t>(value);
      std::string kind_name =
          idx < chunk.nodes.size() && chunk.nodes[idx] != nullptr
              ? NodeKindName(chunk.nodes[idx]->kind)
              : "?";
      return "node[" + std::to_string(value) + "](" + kind_name + ")";
    }
    case 'b':
      return std::string("op(") + BinaryOpName(static_cast<BinaryOp>(value)) + ")";
    case 'u':
      return std::string("op(") + UnaryOpName(static_cast<UnaryOp>(value)) + ")";
    case 's':
      return StatusCodeName(static_cast<StatusCode>(value));
    case 'i':
    default:
      return std::to_string(value);
  }
}

}  // namespace

std::string DisassembleChunk(const Chunk& chunk) {
  std::string out;
  out += "; chunk: " + std::to_string(chunk.code.size()) + " insns, " +
         std::to_string(chunk.num_regs) + " regs, " +
         std::to_string(chunk.constants.size()) + " constants, " +
         std::to_string(chunk.names.size()) + " names, " +
         std::to_string(chunk.nodes.size()) + " nodes\n";
  for (size_t i = 0; i < chunk.code.size(); ++i) {
    const Insn& in = chunk.code[i];
    char head[40];
    std::snprintf(head, sizeof(head), "%4zu  %-18s", i, OpName(in.op));
    std::string line = head;
    const int32_t operands[6] = {in.a, in.b, in.c, in.d, in.e, in.f};
    const char* spec = OperandSpec(in.op);
    if (spec == nullptr) {
      spec = "iiiiii";  // unknown opcode: dump everything raw
    }
    bool first = true;
    for (size_t oi = 0; spec[oi] != '\0' && oi < 6; ++oi) {
      if (spec[oi] == '.') {
        continue;
      }
      if (!first) {
        line += ", ";
      }
      first = false;
      line += RenderOperand(chunk, spec[oi], operands[oi]);
    }
    if (i < chunk.lines.size() && chunk.lines[i] != 0) {
      line += "  ; line " + std::to_string(chunk.lines[i]);
    }
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace vm
}  // namespace turnstile
