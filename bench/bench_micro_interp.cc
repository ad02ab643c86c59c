// Microbenchmarks for the MiniScript runtime substrate (google-benchmark):
// baseline interpreter throughput that the §6.2 overhead numbers are
// relative to.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_main.h"

#include "src/flow/engine.h"
#include "src/flow/workload.h"
#include "src/interp/interp.h"
#include "src/lang/parser.h"
#include "src/runtime/fleet.h"

namespace turnstile {
namespace {

// Runs `source`, then repeatedly calls the global function `tick()` under
// `tier` (the production bytecode VM unless a bench pins an oracle).
struct TickFixture {
  Interpreter interp;
  FunctionPtr tick;

  explicit TickFixture(const char* source, ExecTier tier = ExecTier::kBytecode) {
    interp.set_exec_tier(tier);
    auto program = ParseProgram(source);
    if (!program.ok() || !interp.RunProgram(*program).ok()) {
      std::abort();
    }
    Value* fn = interp.global_env()->Lookup("tick");
    if (fn == nullptr || !fn->IsFunction()) {
      std::abort();
    }
    tick = fn->AsFunction();
  }

  void Run(benchmark::State& state) {
    for (auto _ : state) {
      auto result = interp.CallFunction(tick, Value::Undefined(), {});
      benchmark::DoNotOptimize(result.ok());
    }
  }
};

void BM_ArithmeticLoop(benchmark::State& state) {
  TickFixture f(R"(
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc = (acc * 31 + i) % 65521;
      }
      return acc;
    }
  )");
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ArithmeticLoop);

// BM_ArithmeticLoop with `acc` also read by a closure: `acc` stays in its
// frame slot (kLoadSlot/kStoreSlot), while `i` is a register local.
void BM_CapturedLocalLoop(benchmark::State& state) {
  TickFixture f(R"(
    function tick() {
      let acc = 0;
      const peek = () => acc;
      for (let i = 0; i < 100; i++) {
        acc = (acc * 31 + i) % 65521;
      }
      return peek();
    }
  )");
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CapturedLocalLoop);

void BM_StringConcat(benchmark::State& state) {
  TickFixture f(R"(
    function tick() {
      let s = "";
      for (let i = 0; i < 50; i++) {
        s = s + "x" + i;
      }
      return s.length;
    }
  )");
  f.Run(state);
}
BENCHMARK(BM_StringConcat);

// The blob-building loop of the corpus node constructors, which every
// AppRuntime::Create runs once per deployed tenant: 924 pieces of
// `'"k' + i + '":' + (i % 97) + ","` appended with `+=`.
void BM_BlobBuild(benchmark::State& state) {
  TickFixture f(R"(
    function tick() {
      let blob = "{";
      for (let mb = 0; mb < 924; mb++) {
        blob += '"k' + mb + '":' + (mb % 97) + ",";
      }
      blob = blob + '"end":0}';
      return blob.length;
    }
  )");
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * 924);
}
BENCHMARK(BM_BlobBuild);

// `s += piece` with a 12-byte piece, N times. items_per_second is appends/s:
// it stays roughly flat from 250 to 8000 appends when `+=` grows the string
// in place, and falls with N when every append copies the whole string.
void BM_StringAppend(benchmark::State& state) {
  const std::string source = R"(
    function tick() {
      let s = "";
      for (let i = 0; i < )" + std::to_string(state.range(0)) + R"(; i++) {
        s += "0123456789ab";
      }
      return s.length;
    }
  )";
  TickFixture f(source.c_str());
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StringAppend)->ArgName("appends")->Arg(250)->Arg(8000);

void BM_PropertyAccess(benchmark::State& state) {
  TickFixture f(R"(
    let state = { a: { b: { c: 1 } }, n: 0 };
    function tick() {
      for (let i = 0; i < 100; i++) {
        state.n = state.n + state.a.b.c;
      }
      return state.n;
    }
  )");
  f.Run(state);
}
BENCHMARK(BM_PropertyAccess);

void BM_FunctionCalls(benchmark::State& state) {
  TickFixture f(R"(
    function add(a, b) { return a + b; }
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc = add(acc, i);
      }
      return acc;
    }
  )");
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FunctionCalls);

void BM_ClosureCalls(benchmark::State& state) {
  TickFixture f(R"(
    function makeAdder(k) { return x => x + k; }
    let add7 = makeAdder(7);
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc = add7(acc);
      }
      return acc;
    }
  )");
  f.Run(state);
}
BENCHMARK(BM_ClosureCalls);

void BM_MethodDispatch(benchmark::State& state) {
  TickFixture f(R"(
    class Counter {
      constructor() { this.n = 0; }
      bump(k) { this.n = this.n + k; return this.n; }
    }
    let counter = new Counter();
    function tick() {
      for (let i = 0; i < 100; i++) {
        counter.bump(1);
      }
      return counter.n;
    }
  )");
  f.Run(state);
}
BENCHMARK(BM_MethodDispatch);

void BM_JsonParseNative(benchmark::State& state) {
  TickFixture f(R"(
    let blob = "{";
    for (let i = 0; i < 200; i++) {
      blob += '"k' + i + '":' + i + ",";
    }
    blob += '"end":0}';
    function tick() {
      return Object.keys(JSON.parse(blob)).length;
    }
  )");
  f.Run(state);
}
BENCHMARK(BM_JsonParseNative);

// Width scaling of the two wide-object paths: JSON.parse of an N-key object
// (the corpus parses ~900-key blobs per message) and the fleet wire's
// serialization of an N-key message. Items are keys, so a linear build shows
// a flat per-key time across widths.
void BM_JsonParseWide(benchmark::State& state) {
  const std::string source = "let blob = \"{\";\n"
                             "for (let i = 0; i < " + std::to_string(state.range(0)) + "; i++) {\n"
                             "  blob += (i == 0 ? '\"k' : ',\"k') + i + '\":' + (i % 97);\n"
                             "}\n"
                             "blob += \"}\";\n"
                             "function tick() { return JSON.parse(blob); }\n";
  TickFixture f(source.c_str());
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JsonParseWide)->ArgName("keys")->Arg(16)->Arg(256)->Arg(4096);

void BM_WireSerializeWide(benchmark::State& state) {
  ObjectPtr msg = MakeObject();
  for (int64_t i = 0; i < state.range(0); ++i) {
    msg->Set("k" + std::to_string(i),
             i % 2 == 0 ? Value(static_cast<double>(i % 97)) : Value("v" + std::to_string(i)));
  }
  const Value value(msg);
  for (auto _ : state) {
    Json payload = FleetSerializeMessage(value);
    benchmark::DoNotOptimize(payload.is_object());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireSerializeWide)->ArgName("keys")->Arg(16)->Arg(256)->Arg(4096);

void BM_EventDispatch(benchmark::State& state) {
  Interpreter interp;
  auto program = ParseProgram(R"(
    let net = require("net");
    let socket = net.connect(1, "h");
    let count = 0;
    socket.on("data", d => { count = count + 1; });
  )");
  if (!program.ok() || !interp.RunProgram(*program).ok() || !interp.RunEventLoop().ok()) {
    std::abort();
  }
  ObjectPtr socket = interp.io_world().emitters["net.socket"].front();
  for (auto _ : state) {
    interp.EmitEvent(socket, "data", {Value("payload")});
    if (!interp.RunEventLoop().ok()) {
      std::abort();
    }
  }
}
BENCHMARK(BM_EventDispatch);

void BM_FlowMessageRouting(benchmark::State& state) {
  Interpreter interp;
  FlowEngine engine(&interp);
  Status status = engine.LoadModule(R"(
    module.exports = function(RED) {
      function RelayNode(config) {
        RED.nodes.createNode(this, config);
        let node = this;
        node.on("input", msg => { node.send(msg); });
      }
      RED.nodes.registerType("relay", RelayNode);
    };
  )", "relay.js");
  auto flow = Json::Parse(R"([
    { "id": "a", "type": "relay", "wires": ["b"] },
    { "id": "b", "type": "relay", "wires": ["c"] },
    { "id": "c", "type": "relay", "wires": [] }
  ])");
  if (!status.ok() || !flow.ok() || !engine.InstantiateFlow(*flow).ok()) {
    std::abort();
  }
  ObjectPtr msg = MakeObject();
  msg->Set("payload", Value("x"));
  for (auto _ : state) {
    if (!engine.InjectInput("a", Value(msg)).ok() || !interp.RunEventLoop().ok()) {
      std::abort();
    }
  }
}
BENCHMARK(BM_FlowMessageRouting);

// --- Per-opcode dispatch microbenches ----------------------------------------
// Each tick() keeps one bytecode operation family hot so the dispatch cost of
// that op dominates the sample. All are tier-parameterized (tier:0 =
// tree-walker oracle, tier:1 = bytecode VM) so the per-op dispatch gap between
// the two execution tiers is directly visible in one run.

void RunTierBench(benchmark::State& state, const char* source, int ops_per_tick) {
  TickFixture f(source, state.range(0) == 0 ? ExecTier::kTreeWalk : ExecTier::kBytecode);
  f.Run(state);
  state.SetItemsProcessed(state.iterations() * ops_per_tick);
}

#define TURNSTILE_TIER_BENCH(name) BENCHMARK(name)->ArgName("tier")->Arg(0)->Arg(1)

// Local variable shuffle, no arithmetic to speak of (register locals under
// tier:1, so kMove rather than kLoadSlot / kStoreSlot).
void BM_OpLoadStoreSlot(benchmark::State& state) {
  RunTierBench(state, R"(
    function tick() {
      let a = 1; let b = 2; let t = 0;
      for (let i = 0; i < 100; i++) {
        t = a; a = b; b = t;
      }
      return a;
    }
  )", 300);
}
TURNSTILE_TIER_BENCH(BM_OpLoadStoreSlot);

// kBinary number fast path: add/mul/mod on doubles.
void BM_OpBinaryArith(benchmark::State& state) {
  RunTierBench(state, R"(
    function tick() {
      let acc = 1;
      for (let i = 0; i < 100; i++) {
        acc = (acc * 7 + 3) % 1000003;
      }
      return acc;
    }
  )", 300);
}
TURNSTILE_TIER_BENCH(BM_OpBinaryArith);

// Numeric `+=` on a local (tier:1 runs kAddReg's number-number case).
void BM_OpAddSlotNumber(benchmark::State& state) {
  RunTierBench(state, R"(
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc += i;
      }
      return acc;
    }
  )", 300);
}
TURNSTILE_TIER_BENCH(BM_OpAddSlotNumber);

// kBinary compare + kJumpIfFalse: branchy code, both arms taken.
void BM_OpCompareBranch(benchmark::State& state) {
  RunTierBench(state, R"(
    function tick() {
      let lo = 0; let hi = 0;
      for (let i = 0; i < 100; i++) {
        if (i < 50) { lo = lo + 1; } else { hi = hi + 1; }
      }
      return lo + hi;
    }
  )", 100);
}
TURNSTILE_TIER_BENCH(BM_OpCompareBranch);

// kLoadGlobal: reads resolved to the global frame from inside a function.
void BM_OpGlobalLoad(benchmark::State& state) {
  RunTierBench(state, R"(
    let base = 17;
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc = acc + base;
      }
      return acc;
    }
  )", 100);
}
TURNSTILE_TIER_BENCH(BM_OpGlobalLoad);

// kCall with the contiguous register-window argument convention.
void BM_OpCallWindow(benchmark::State& state) {
  RunTierBench(state, R"(
    function mix(a, b, c) { return a + b * c; }
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        acc = mix(acc, i, 3);
      }
      return acc;
    }
  )", 100);
}
TURNSTILE_TIER_BENCH(BM_OpCallWindow);

// kEnvPush / kEnvPop: a non-transparent block per iteration.
void BM_OpEnvPushPop(benchmark::State& state) {
  RunTierBench(state, R"(
    function tick() {
      let acc = 0;
      for (let i = 0; i < 100; i++) {
        let captured = () => i;
        acc = acc + captured();
      }
      return acc;
    }
  )", 100);
}
TURNSTILE_TIER_BENCH(BM_OpEnvPushPop);

// kIterNew / kIterNext / kIterPop: for-of over a pre-built array.
void BM_OpIterNext(benchmark::State& state) {
  RunTierBench(state, R"(
    let data = [];
    for (let i = 0; i < 100; i++) { data.push(i); }
    function tick() {
      let acc = 0;
      for (let x of data) { acc = acc + x; }
      return acc;
    }
  )", 100);
}
TURNSTILE_TIER_BENCH(BM_OpIterNext);

// kGetPropAtom / kSetProp: member reads and writes on a stable shape.
void BM_OpPropAtom(benchmark::State& state) {
  RunTierBench(state, R"(
    let box = { n: 0 };
    function tick() {
      for (let i = 0; i < 100; i++) {
        box.n = box.n + 1;
      }
      return box.n;
    }
  )", 200);
}
TURNSTILE_TIER_BENCH(BM_OpPropAtom);

void BM_WorkloadGeneration(benchmark::State& state) {
  auto tmpl = Json::Parse(R"({ "payload": "$frame", "topic": "$topic", "seq": "$seq" })");
  if (!tmpl.ok()) {
    std::abort();
  }
  Rng rng(1);
  int seq = 0;
  for (auto _ : state) {
    Value msg = GenerateMessage(*tmpl, &rng, seq++);
    benchmark::DoNotOptimize(msg.IsObject());
  }
}
BENCHMARK(BM_WorkloadGeneration);

}  // namespace
}  // namespace turnstile

TURNSTILE_BENCHMARK_MAIN()
