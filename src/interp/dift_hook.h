// Fused-ISA entry points into the DIFT monitor.
//
// The bytecode compiler lowers recognized `__dift.*` call shapes onto
// dedicated labelled opcodes (kBinaryLabelled / kCheckSink / kCallLabelled,
// see src/vm/bytecode.h). Their dispatch arms call straight through this
// interface instead of routing via the `__dift` bridge object: no global
// lookup, no property load, no argument Value for the operator spelling, no
// native-call frame. The interpreter itself stays IFC-free — it only stores
// an opaque hook pointer that DiftTracker::Install() registers.
//
// Contract: every entry point must emit exactly the trace records, audit
// events, and tracker stats the equivalent call-lowered `__dift.*` native
// would, so CanonicalLog() stays byte-identical across execution tiers.
// DiftTracker meets it by routing each entry point and its native twin
// through one body.
#ifndef TURNSTILE_SRC_INTERP_DIFT_HOOK_H_
#define TURNSTILE_SRC_INTERP_DIFT_HOOK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/interp/value.h"
#include "src/support/status.h"

namespace turnstile {

enum class BinaryOp : uint8_t;  // src/interp/interp.h

class DiftHook {
 public:
  virtual ~DiftHook() = default;

  // `__dift.binaryOp(spelling, left, right)`: merge operand labels, evaluate
  // the operator, label the result. `op` is the compile-time decode of
  // `spelling` (kInvalid spellings surface the same UnimplementedError the
  // string API produces).
  virtual Result<Value> FusedBinary(const std::string& spelling, BinaryOp op,
                                    const Value& left, const Value& right) = 0;

  // `__dift.check(data, receiver)`: policy check against the "check" sink.
  // Returns the allowed/blocked verdict as a MiniScript boolean.
  virtual Result<Value> FusedCheck(const Value& data, const Value& receiver) = 0;

  // `__dift.invoke(target, func, [args...])`: labelled method invocation with
  // invoke-labeller resolution. The argument window is passed directly —
  // no intermediate array object is materialized.
  virtual Result<Value> FusedInvoke(const Value& target, const std::string& func,
                                    std::vector<Value> args) = 0;
};

}  // namespace turnstile

#endif  // TURNSTILE_SRC_INTERP_DIFT_HOOK_H_
