// Differential testing of the three execution tiers: every program runs under
// the DIFT-fused bytecode VM (the default), the call-lowered bytecode oracle,
// and the tree-walking oracle, and the observable outcomes — run/loop status,
// final values, simulated I/O records, DIFT violation reports, the canonical
// audit log — must be identical. The program corpus replays the sources of
// interp_eval_test and interp_semantics_test plus DIFT-heavy programs, so a
// semantic divergence introduced in any tier fails here with the offending
// program named.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dift/tracker.h"
#include "src/interp/interp.h"
#include "src/lang/parser.h"
#include "src/obs/event_log.h"

namespace turnstile {
namespace {

struct DiffProgram {
  const char* name;
  const char* source;
};

// Everything a MiniScript program can observably produce through the runtime.
struct TierOutcome {
  std::string run_status;    // "" when ok
  std::string loop_status;   // "" when ok
  std::string result;        // display string of the global `result`
  std::string io;            // rendered io_world records (sink writes)
  std::string violations;    // rendered DIFT violation reports
  std::string audit;         // canonical audit-ledger log (tracker runs)
  bool evals_counted = false;

  bool operator==(const TierOutcome& other) const {
    return run_status == other.run_status && loop_status == other.loop_status &&
           result == other.result && io == other.io && violations == other.violations &&
           audit == other.audit && evals_counted == other.evals_counted;
  }
};

std::ostream& operator<<(std::ostream& os, const TierOutcome& o) {
  return os << "run_status=\"" << o.run_status << "\" loop_status=\"" << o.loop_status
            << "\" result=\"" << o.result << "\" io=\"" << o.io << "\" violations=\""
            << o.violations << "\" audit=\"" << o.audit
            << "\" evals_counted=" << o.evals_counted;
}

// The basic policy from dift_tracker_test: value-dependent labellers plus
// rules that make secret->public flows (and invoke-labelled sinks) violate.
constexpr const char* kDiftPolicy = R"json({
  "labellers": {
    "employeeOrCustomer": {
      "$fn": "item => (item.employeeID ? \"employee\" : \"customer\")" },
    "secret": { "$const": "secret" },
    "public": { "$const": "public" },
    "mailerByRecipient": { "send": {
      "$invoke": "(obj, args) => (args[0] === \"boss\" ? \"secret\" : \"public\")" } },
    "anySink": { "$invoke": "(obj, args) => \"secret\"" }
  },
  "rules": ["employee -> customer", "public -> secret"]
})json";

TierOutcome RunTier(const std::string& source, ExecTier tier, bool with_tracker) {
  TierOutcome outcome;
  // Fresh log (and fresh trace numbering) per tier run: the canonical log —
  // every monitor decision in order — must come out byte-identical from
  // every tier.
  obs::EventLog& log = obs::EventLog::Global();
  log.Disable();
  log.Enable(1u << 16);
  Interpreter interp;
  interp.set_exec_tier(tier);

  std::shared_ptr<Policy> policy;
  std::unique_ptr<DiftTracker> tracker;
  if (with_tracker) {
    auto parsed = Policy::FromJsonText(kDiftPolicy);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    policy = std::shared_ptr<Policy>(std::move(parsed).value().release());
    tracker = std::make_unique<DiftTracker>(&interp, policy);
    tracker->Install();
  }

  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) {
    return outcome;
  }
  Status run = interp.RunProgram(*program);
  outcome.run_status = run.ok() ? "" : run.ToString();
  Status loop = interp.RunEventLoop();
  outcome.loop_status = loop.ok() ? "" : loop.ToString();

  Value* slot = interp.global_env()->Lookup("result");
  outcome.result = slot != nullptr ? slot->ToDisplayString() : "<unset>";

  std::ostringstream io;
  for (const IoRecord& record : interp.io_world().records) {
    io << record.channel << "/" << record.op << "/" << record.detail << "/" << record.payload
       << "\n";
  }
  outcome.io = io.str();

  if (tracker != nullptr) {
    std::ostringstream violations;
    for (const Violation& v : tracker->violations()) {
      violations << v.sink << " " << v.data_labels << " -> " << v.receiver_labels << "\n";
    }
    outcome.violations = violations.str();
  }
  outcome.audit = log.CanonicalLog();
  log.Disable();
  outcome.evals_counted = interp.eval_count() > 0;
  return outcome;
}

void ExpectTiersAgree(const DiffProgram* programs, size_t count, bool with_tracker) {
  for (size_t i = 0; i < count; ++i) {
    SCOPED_TRACE(programs[i].name);
    TierOutcome fused = RunTier(programs[i].source, ExecTier::kBytecode, with_tracker);
    TierOutcome lowered =
        RunTier(programs[i].source, ExecTier::kBytecodeLowered, with_tracker);
    TierOutcome treewalk = RunTier(programs[i].source, ExecTier::kTreeWalk, with_tracker);
    EXPECT_EQ(fused, treewalk);
    EXPECT_EQ(lowered, treewalk);
  }
}

// --- interp_eval_test programs -----------------------------------------------

constexpr DiffProgram kEvalPrograms[] = {
    {"arith-precedence", "let result = 1 + 2 * 3;"},
    {"arith-paren", "let result = (1 + 2) * 3;"},
    {"arith-mod", "let result = 10 % 3;"},
    {"arith-pow", "let result = 2 ** 10;"},
    {"arith-div", "let result = 7 / 2;"},
    {"concat-str", "let result = \"a\" + \"b\" + 1;"},
    {"concat-num-first", "let result = 1 + 2 + \"x\";"},
    {"cmp-num", "let result = 1 < 2;"},
    {"cmp-str", "let result = \"a\" < \"b\";"},
    {"loose-eq", "let result = 1 == \"1\";"},
    {"strict-eq", "let result = 1 === \"1\";"},
    {"null-loose", "let result = null == undefined;"},
    {"null-strict", "let result = null === undefined;"},
    {"obj-identity", "let result = {} === {};"},
    {"obj-alias", "let a = {}; let b = a; let result = a === b;"},
    {"shortcircuit-and",
     "let hits = 0; function f() { hits = hits + 1; return true; } "
     "let x = false && f(); let result = hits;"},
    {"nullish-null", "let result = null ?? 5;"},
    {"nullish-zero", "let result = 0 ?? 5;"},
    {"or-zero", "let result = 0 || 5;"},
    {"ternary", "let result = 2 > 1 ? \"yes\" : \"no\";"},
    {"not-zero", "let result = !0;"},
    {"typeof-string", "let result = typeof \"s\";"},
    {"typeof-missing", "let result = typeof missing;"},
    {"postfix-value", "let i = 5; let result = i++;"},
    {"postfix-effect", "let i = 5; i++; let result = i;"},
    {"prefix-value", "let i = 5; let result = ++i;"},
    {"member-update", "let o = { n: 1 }; o.n++; let result = o.n;"},
    {"compound-assign", "let x = 2; x += 3; x *= 4; let result = x;"},
    {"compound-concat", "let s = \"a\"; s += \"b\"; let result = s;"},
    {"member-chain", "let o = { a: 1, b: { c: 2 } }; let result = o.a + o.b.c;"},
    {"member-set", "let o = {}; o.x = 9; let result = o.x;"},
    {"index-get", "let o = { k: 4 }; let key = \"k\"; let result = o[key];"},
    {"computed-key", "let k = \"dyn\"; let o = { [k]: \"v\" }; let result = o.dyn;"},
    {"shorthand-prop", "let a = 7; let o = { a }; let result = o.a;"},
    {"delete-prop", "let o = { a: 1 }; delete o.a; let result = typeof o.a;"},
    {"array-index", "let a = [1, 2, 3]; let result = a[0] + a[2];"},
    {"array-length", "let a = [1, 2, 3]; let result = a.length;"},
    {"array-grow", "let a = []; a[4] = 1; let result = a.length;"},
    {"array-spread", "let a = [1, ...[2, 3], 4]; let result = a.length;"},
    {"fn-decl", "function add(a, b) { return a + b; } let result = add(2, 3);"},
    {"arrow-curry",
     "let make = x => (y => x + y); let add2 = make(2); let result = add2(40);"},
    {"closure-counter",
     "function counter() { let n = 0; return () => { n = n + 1; return n; }; } "
     "let c = counter(); c(); c(); let result = c();"},
    {"rest-args",
     "function f(a, ...rest) { return rest.length; } let result = f(1, 2, 3, 4);"},
    {"spread-args",
     "function f(a, b, c) { return a + b + c; } let args = [1, 2, 3]; "
     "let result = f(...args);"},
    {"missing-args", "function f(a, b) { return typeof b; } let result = f(1);"},
    {"for-sum", "let s = 0; for (let i = 1; i <= 10; i++) { s += i; } let result = s;"},
    {"while-continue",
     "let s = 0; let i = 0; while (i < 5) { i++; if (i === 3) { continue; } s += i; } "
     "let result = s;"},
    {"for-break",
     "let s = 0; for (let i = 0; ; i++) { if (i === 4) { break; } s += i; } let result = s;"},
    {"for-of-sum", "let s = 0; for (let x of [10, 20, 30]) { s += x; } let result = s;"},
    {"for-of-string", "let n = 0; for (let c of \"abc\") { n++; } let result = n;"},
    {"block-scope", "let x = 1; { let x = 2; } let result = x;"},
    {"try-catch",
     "let result = \"none\"; try { throw \"boom\"; } catch (e) { result = e; }"},
    {"try-finally",
     "let result = \"\"; try { result += \"t\"; } catch (e) { result += \"c\"; } "
     "finally { result += \"f\"; }"},
    {"catch-across-call",
     "function risky() { throw { message: \"inner\" }; } let result = \"\"; "
     "try { risky(); } catch (e) { result = e.message; }"},
    {"uncaught-throw", "throw \"kaboom\";"},
    {"class-counter", R"(
      class Counter {
        constructor(start) { this.n = start; }
        bump() { this.n = this.n + 1; return this.n; }
      }
      let c = new Counter(10);
      c.bump();
      let result = c.bump();
    )"},
    {"class-inheritance", R"(
      class Device {
        describe() { return "device:" + this.id; }
      }
      class Camera extends Device {
        constructor(id) { this.id = id; }
      }
      let cam = new Camera("c1");
      let result = cam.describe();
    )"},
    {"method-override", R"(
      class A { who() { return "A"; } }
      class B extends A { who() { return "B"; } }
      let result = new B().who();
    )"},
    {"class-without-new", "class A {} A();"},
    {"this-in-arrow", R"(
      class Box {
        constructor() { this.v = 5; }
        total(items) {
          let sum = 0;
          items.forEach(x => { sum += x + this.v; });
          return sum;
        }
      }
      let result = new Box().total([1, 2]);
    )"},
    {"sequence-comma", "let result = (1, 2, 3);"},
    {"optional-nullish", "let o = null; let result = typeof o?.a;"},
    {"optional-chain", "let o = { a: { b: 3 } }; let result = o?.a?.b;"},
    {"in-present", "let result = \"a\" in { a: 1 };"},
    {"in-absent", "let result = \"b\" in { a: 1 };"},
    {"undeclared-ref", "let x = neverDeclared + 1;"},
    {"recursion-bound", "function f() { return f(); } f();"},
    {"update-invalid-target", "let result = 1; ++1;"},
    {"extends-non-class", "function NotAClass() {} class C extends NotAClass {}"},
    {"extends-undeclared", "class C extends Missing {}"},
    // Array writes that once aborted the process (std::length_error /
    // std::bad_alloc) raise a RangeError status instead.
    {"array-length-negative", "let a = [1, 2]; a.length = -1;"},
    {"array-length-nan", "let a = [1, 2]; a.length = 0 / 0;"},
    {"array-length-fraction", "let a = [1]; a.length = 1.5;"},
    {"array-length-too-long", "let a = []; a.length = 4294967295;"},
    {"array-index-too-far", "let a = []; a[1e12] = 1;"},
    {"array-length-shrink",
     "let a = [1, 2, 3]; a.length = 1; let result = a.length + \"/\" + a[0];"},
    // Number -> integer conversion: NaN, infinities and values outside the
    // int64 range convert to 0; `in` on arrays never casts a bad index.
    {"bitwise-out-of-range",
     "let result = (1e300 | 0) + \"/\" + (-1e300 | 0) + \"/\" + (1e19 & 7) + \"/\" + ~1e300;"},
    {"bitwise-non-finite",
     "let result = ((0 / 0) | 5) + \"/\" + ~(1 / 0) + \"/\" + ((1 / 0) >> 1);"},
    {"in-array-index",
     "let a = [1, 2]; let result = (1 in a) + \"/\" + (2 in a) + \"/\" + ((-1) in a) + \"/\" + "
     "((0 / 0) in a) + \"/\" + (1.5 in a);"},
};

// --- interp_semantics_test programs ------------------------------------------

constexpr DiffProgram kSemanticsPrograms[] = {
    {"for-of-fresh-binding", R"(
      let fns = [];
      for (let i of [1, 2, 3]) {
        fns.push(() => i);
      }
      let result = fns.map(f => f()).join(",");
    )"},
    {"shared-capture", R"(
      function makePair() {
        let n = 0;
        return { inc: () => { n = n + 1; }, get: () => n };
      }
      let pair = makePair();
      pair.inc();
      pair.inc();
      let result = pair.get();
    )"},
    {"finally-overrides-return", R"(
      function f() {
        try {
          return "try";
        } finally {
          out.push("finally ran");
        }
      }
      out = [];
      let result = f() + "/" + out.length;
    )"},
    {"catch-rethrow", R"(
      let result = "";
      try {
        try {
          throw "inner";
        } catch (e) {
          throw e + "+rethrown";
        }
      } catch (e) {
        result = e;
      }
    )"},
    {"throw-across-calls", R"(
      function deep(n) {
        if (n === 0) {
          throw { code: 42 };
        }
        return deep(n - 1);
      }
      let result = 0;
      try {
        deep(5);
      } catch (e) {
        result = e.code;
      }
    )"},
    {"spread-into-rest", R"(
      function gather(first, ...rest) {
        return first + ":" + rest.join("");
      }
      let parts = [1, 2, 3, 4];
      let result = gather(...parts);
    )"},
    {"hoisted-function", R"(
      let result = later(20);
      function later(x) { return x * 2 + 2; }
    )"},
    {"nested-shadowing", R"(
      let x = "g";
      function outer() {
        let x = "o";
        function inner() {
          let x = "i";
          x = x + "!";
          return x;
        }
        return inner() + x;
      }
      let result = outer() + x;
    )"},
    {"catch-param-shadow", R"(
      let e = "outer";
      let seen = "";
      try {
        throw "thrown";
      } catch (e) {
        e = e + "+edited";
        seen = e;
      }
      let result = seen + "/" + e;
    )"},
    {"named-fn-expr-self", R"(
      let f = function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); };
      let g = f;
      f = null;
      let result = g(5);
    )"},
    {"for-of-outer-scope", R"(
      let item = "outer";
      let out = [];
      for (let item of [item + "1", item + "2"]) {
        out.push(item);
      }
      let result = out.join(",");
    )"},
    {"bind-restores-this", R"(
      class Box {
        constructor() { this.v = 7; }
        get2() { return this.v; }
      }
      let box = new Box();
      let bound = box.get2.bind(box);
      let result = bound();
    )"},
    {"promise-order", R"(
      let order = [];
      new Promise(res => { res(1); }).then(v => { order.push("p1:" + v); });
      new Promise(res => { res(2); }).then(v => { order.push("p2:" + v); });
      setTimeout(() => { order.push("timer"); }, 0);
      let result = order;
    )"},
    {"implicit-global", R"(
      function init() { counter = 10; }
      init();
      counter = counter + 1;
      let result = counter;
    )"},
    {"await-resolved", R"(
      async function get() { return 7; }
      async function main() { let v = await get(); hold = v + 1; }
      main();
      let result = typeof hold;
    )"},
    {"console-io", R"(
      console.log("plain", 1 + 1);
      for (let i of [1, 2]) { console.log("line" + i); }
      let result = "logged";
    )"},
    {"logical-assign", R"(
      let a = 0; a ||= 5;
      let b = 1; b &&= 7;
      let c = null; c ??= 9;
      let result = a + "/" + b + "/" + c;
    )"},
    {"update-in-loop-closure", R"(
      let total = 0;
      for (let i = 0; i < 3; i++) {
        let bump = () => { total += i; };
        bump();
      }
      let result = total;
    )"},
    // try/catch/finally blocks run as VM sub-chunks: break and continue leave
    // them as completions that the enclosing loop's trampoline must land,
    // unwinding the loop-body frames (and, for for-of, the iteration frame).
    {"try-finally-break-continue-for", R"(
      let log = [];
      for (let i = 0; i < 5; i++) {
        let k = i * 2;
        try {
          if (i === 1) { continue; }
          if (i === 3) { break; }
          log.push("t" + k);
        } finally {
          log.push("f" + i);
        }
      }
      let result = log.join(",");
    )"},
    {"try-finally-break-continue-while", R"(
      let log = [];
      let i = 0;
      while (true) {
        i++;
        let tag = "w" + i;
        try {
          if (i % 2 === 0) { continue; }
          if (i > 5) { break; }
          log.push(tag);
        } catch (e) {
          log.push("never");
        } finally {
          log.push("f");
        }
      }
      let result = log.join(",") + "/" + i;
    )"},
    {"try-finally-break-continue-for-of", R"(
      let log = [];
      for (let o of [1, 2]) {
        for (let x of [10, 20, 30, 40]) {
          let tag = o + ":" + x;
          try {
            if (x === 20) { continue; }
            if (x === 30) { break; }
            log.push(tag);
          } finally {
            log.push("f");
          }
        }
        log.push("next");
      }
      let result = log.join(",");
    )"},
    {"return-through-finally-in-loop", R"(
      let log = [];
      function find(xs, want) {
        for (let x of xs) {
          try {
            if (x === want) { return "found " + x; }
          } finally {
            log.push("f" + x);
          }
        }
        return "missing";
      }
      let result = find([1, 2, 3], 2) + "/" + find([4], 9) + "/" + log.join(",");
    )"},
    {"finally-overrides-break", R"(
      let log = [];
      function f() {
        for (let i = 0; i < 3; i++) {
          try {
            break;
          } finally {
            log.push("f" + i);
            continue;
          }
        }
        for (let x of [1, 2]) {
          try {
            break;
          } finally {
            return log.join(",") + "/returned " + x;
          }
        }
        return "unreachable";
      }
      let result = f();
    )"},
    {"try-finally-without-catch-rethrows", R"(
      let log = [];
      function f() {
        try {
          throw "boom";
        } finally {
          log.push("finally");
        }
        log.push("unreachable");
      }
      try {
        f();
      } catch (e) {
        log.push("caught " + e);
      }
      let result = log.join(",");
    )"},
    {"throw-from-catch-with-finally", R"(
      let log = [];
      try {
        try {
          throw "first";
        } catch (e) {
          log.push("caught " + e);
          throw e + "-again";
        } finally {
          log.push("finally");
        }
      } catch (e2) {
        log.push("outer " + e2);
      }
      let result = log.join(",");
    )"},
    {"try-in-loop-in-try", R"(
      let log = [];
      try {
        for (let i = 0; i < 5; i++) {
          try {
            if (i === 1) { throw "odd" + i; }
            if (i === 2) { continue; }
            if (i === 3) { throw "escape"; }
            log.push("ok" + i);
          } catch (e) {
            if (e === "escape") { throw e; }
            log.push("c:" + e);
          }
        }
      } catch (outer) {
        log.push("outer:" + outer);
      }
      let result = log.join(",");
    )"},
    {"class-in-function", R"(
      function make(v) {
        class Local {
          constructor() { this.v = v; }
          get() { return this.v * 2; }
        }
        return new Local();
      }
      let result = make(4).get() + make(5).get();
    )"},
    {"class-in-loop-body", R"(
      let out = [];
      for (let i = 0; i < 3; i++) {
        class Step { show() { return "s" + i; } }
        out.push(new Step().show());
      }
      let result = out.join(",");
    )"},
    {"class-in-try", R"(
      let result = "";
      try {
        class Boom { constructor() { throw "ctor"; } }
        class Fine extends Boom { }
        result += typeof Fine;
        new Fine();
      } catch (e) {
        result += "/" + e;
      }
    )"},
};

// --- `+=` programs -------------------------------------------------------------
// The bytecode tiers compile `+=` on a slot local to one kAddSlot that may
// append to the slot's string in place. Each row probes a way the old string
// could still be visible elsewhere (or the slot could change under the rhs);
// the tree-walker, which never mutates a string, is the reference. Targets
// live in function bodies: top-level bindings are globals, not slots.

constexpr DiffProgram kAddAssignPrograms[] = {
    {"add-assign-alias-unchanged", R"(
      function f() {
        let a = "x";
        a += "";
        let b = a;
        a += "y";
        return b + "|" + a;
      }
      let result = f();
    )"},
    {"add-assign-alias-mid-loop", R"(
      function f() {
        let s = "";
        let snap = "";
        for (let i = 0; i < 10; i++) {
          s += i;
          if (i === 4) { snap = s; }
        }
        return snap + "|" + s;
      }
      let result = f();
    )"},
    {"add-assign-rhs-reassigns-target", R"(
      function f() {
        let s = "x";
        s += "";
        s += (s = "z", "w");
        let t = "p";
        t += "";
        t += (() => { t = "q"; return "r"; })();
        return s + "|" + t;
      }
      let result = f();
    )"},
    {"add-assign-closure-reads-target", R"(
      function f() {
        let s = "ab";
        s += "";
        let seen = "";
        let peek = () => { seen = s; return "!"; };
        s += peek();
        s += peek();
        return seen + "|" + s;
      }
      let result = f();
    )"},
    {"add-assign-outer-frame", R"(
      function f() {
        let s = "";
        let add = x => { s += x; return s.length; };
        for (let i = 0; i < 5; i++) { add("ab"); }
        { let inner = "-"; s += inner; }
        return s;
      }
      let result = f();
    )"},
    {"add-assign-non-string-rhs", R"(
      function f() {
        let s = "v";
        s += "";
        s += 1.5;
        s += true;
        s += undefined;
        s += null;
        s += { k: 1, t: "x" };
        s += [1, "a"];
        s += -0;
        s += () => 1;
        return s;
      }
      let result = f();
    )"},
    {"add-assign-non-string-target", R"(
      function f() {
        let n = 1;
        n += 2;
        let m = 1;
        m += "3";
        let b = true;
        b += 1;
        let u;
        u += 1;
        let o = { k: 1 };
        o += "!";
        let z = 0;
        z += -0;
        return [n, m, b, typeof u, o, z].join(",");
      }
      let result = f();
    )"},
    {"add-assign-numbers", R"(
      function f() {
        let acc = 0;
        for (let i = 0; i < 100; i++) {
          acc += i;
        }
        let x = 0.1;
        x += 0.2;
        let nz = -0;
        nz += -0;
        let inf = 1 / 0;
        inf += -1 / 0;
        let big = 9007199254740992;
        big += 1;
        let captured = 1;
        const bump = d => { captured += d; return captured; };
        bump(2);
        bump(0.5);
        return [acc, x, 1 / nz, inf, big, captured].join(",");
      }
      let result = f();
    )"},
    {"add-assign-const-target", R"(
      function f() {
        const c = "a";
        c += "b";
        return c;
      }
      let result = f();
    )"},
    {"add-assign-member-and-index", R"(
      function f() {
        let o = { s: "a" };
        o.s += "b";
        o.s += 1;
        let arr = ["x"];
        arr[0] += "y";
        arr[0] += arr[0];
        let k = "s";
        o[k] += "c";
        return o.s + "|" + arr[0];
      }
      let result = f();
    )"},
    {"add-assign-2000-appends", R"(
      function f() {
        let s = "";
        let t = "";
        for (let i = 0; i < 2000; i++) {
          s += i + ",";
          t = t + i + ",";
        }
        return s.length + "/" + (s === t) + "/" + s.slice(0, 8) + "/" + s.slice(s.length - 10);
      }
      let result = f();
    )"},
};

// --- register locals and the fused loop ops ----------------------------------
//
// Locals that only their own chunk names live in registers; one that a
// closure, a class or a try/catch/finally block names stays in its frame
// slot. These rows sit on both sides of that line, and exercise the
// increment, compare-and-jump and constant-operand fast paths on every
// operand type their EvalBinaryOp fallbacks cover.

constexpr DiffProgram kRegisterLocalPrograms[] = {
    {"closure-declared-before-use", R"(
      function f() {
        let n = 1;
        const get = () => n;
        n = n + 1;
        let a = get();
        n += 10;
        n++;
        return a + "," + get() + "," + n;
      }
      let result = f();
    )"},
    {"closure-declared-after-use", R"(
      function f() {
        let total = 0;
        for (let i = 0; i < 5; i++) { total = total + i; }
        let before = show();
        const read = () => total;
        total++;
        function show() { return typeof total + ":" + total; }
        return before + "/" + read() + "/" + total;
      }
      let result = f();
    )"},
    {"loop-variable-captured", R"(
      function f() {
        let fns = [];
        for (let i = 0; i < 3; i++) { fns.push(() => i); }
        for (let k of [10, 20]) {
          let j = k + 1;
          fns.push(() => j + k);
        }
        let out = [];
        for (let fn of fns) { out.push(fn()); }
        return out.join(",");
      }
      let result = f();
    )"},
    {"locals-in-try-catch-finally", R"(
      function f() {
        let a = 1;
        let b = 2;
        let c = 3;
        let log = "";
        for (let i = 0; i < 3; i++) {
          try {
            a = a + i;
            let t = a * 2;
            if (i === 1) { throw "boom" + t; }
            log += "t" + t;
          } catch (e) {
            b = b * 10 + i;
            let inner = e + "!";
            log += "c" + inner;
          } finally {
            c = c + a;
            log += "f" + c;
          }
        }
        return [a, b, c, log].join("|");
      }
      let result = f();
    )"},
    {"parameters-shadowing-recursion", R"(
      function add(x, y) { x = x + 1; y++; return x * 10 + y; }
      function adder(base, step) {
        const inc = () => base += step;
        inc();
        inc();
        return base + step;
      }
      function shadow(x) {
        let r = x;
        { let x = r + 100; r = r + x; }
        return r + x;
      }
      function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
      function rest(first, ...more) {
        first = first + more.length;
        more.push(first);
        return more.join("-");
      }
      const named = function me(k) { return k > 0 ? me(k - 1) + k : 0; };
      const arrow = (p, q) => p - q;
      function twice(a, a2) { let a3 = a; a = a2; a2 = a3; return a + ":" + a2; }
      let result = [add(1, 2), adder(5, 3), shadow(7), fact(10), rest(1, 2, 3), named(4),
                    arrow(9, 4), twice("l", "r"), add()].join(",");
    )"},
    {"break-continue-nested-register-loops", R"(
      function f() {
        let hits = 0;
        let trail = "";
        for (let i = 0; i < 5; i++) {
          if (i === 3) { continue; }
          for (let j = 0; j < 5; j++) {
            if (j > i) { break; }
            if ((i + j) % 2 === 0) { continue; }
            hits++;
            trail += i + "" + j + ";";
          }
          let w = 0;
          while (true) {
            w++;
            if (w >= i) { break; }
          }
          hits += w;
          for (let x of [1, 2, 3]) {
            if (x === 2) { continue; }
            if (x > i) { break; }
            trail += "x" + x;
          }
        }
        return hits + "|" + trail;
      }
      let result = f();
    )"},
    {"block-locals-reenter-as-undefined", R"(
      function f() {
        let seen = [];
        for (let i = 0; i < 3; i++) {
          seen.push(typeof late + ":" + late);
          let late = i * 2;
          if (i > 0) var cond = i;
          seen.push(cond);
          let again;
          seen.push(again);
          again = i;
        }
        let k = 0;
        while (k < 3) {
          k++;
          let acc = acc === undefined ? k : acc + 100;
          seen.push(acc);
        }
        for (let v of ["p", "q"]) {
          seen.push(w);
          let w = v + v;
        }
        return seen.join(",");
      }
      let result = f();
    )"},
    {"increment-odd-operands", R"(
      function f() {
        let s = "5";
        s++;
        let u;
        u++;
        let nz = -0;
        nz++;
        let nz2 = -0;
        nz2--;
        let nzk = -0;
        let r1 = nzk++;
        let str = "abc";
        str--;
        let b = true;
        b++;
        let n = null;
        n--;
        let y = 1;
        let z = y++ + ++y;
        let w = 5;
        let q = w--;
        let p = "7";
        let pre = ++p;
        let post = p--;
        let e = 1;
        e = e++;
        return [s, u, nz, 1 / nz2, r1, 1 / nzk, str, b, n, y, z, w, q, p, pre, post, e,
                typeof s, typeof r1].join(",");
      }
      let g = "9";
      g++;
      let gs = "x";
      gs--;
      for (let t = "0"; t < 3; t++) { g = g + t; }
      let result = f() + "|" + g + "|" + gs;
    )"},
    {"compare-and-jump-odd-operands", R"(
      function f() {
        let out = [];
        let nan = 0 / 0;
        let nz = -0;
        if (nan < 1) { out.push("a"); } else { out.push("A"); }
        if (nan >= nan) { out.push("b"); } else { out.push("B"); }
        if (nan !== nan) { out.push("c"); }
        if (nan === nan) { out.push("C"); }
        if ("b" < "a") { out.push("d"); } else { out.push("D"); }
        if ("10" < "9") { out.push("e"); }
        if ("10" < 9) { out.push("f"); } else { out.push("F"); }
        if (null <= 0) { out.push("g"); }
        if (undefined < 1) { out.push("h"); } else { out.push("H"); }
        if (nz === 0) { out.push("i"); }
        if (1 / nz < 0) { out.push("j"); }
        if ("1" === 1) { out.push("k"); } else { out.push("K"); }
        if (nz <= -0 && nz >= 0) { out.push("l"); }
        if (true > false) { out.push("m"); }
        if ([2] > 1) { out.push("n"); } else { out.push("N"); }
        let i = 0;
        while (i !== "3" && i < 5) { i++; }
        let c = 0;
        for (let k = "a"; k < "aaaa"; k += "a") { c++; }
        out.push(i, c, nan < 1 ? "o" : "O", "x" > 1 ? "p" : "P", nz === 0 ? "q" : "Q");
        return out.join("");
      }
      let result = f();
    )"},
    {"operands-read-before-a-later-assignment", R"(
      function f() {
        let x = 1;
        let a = x + (x = 5);
        let b = x * (x++, 2);
        let o = { k: 0 };
        let key = "k";
        o[key] = (key = "j", 7);
        let arr = [10, 20, 30];
        let i = 0;
        let c = arr[i] + arr[(i = 2)];
        let s = "p";
        s += (s = "q", "r");
        let t = "u";
        let u = t + (t += "v");
        let n = 3;
        n -= (n = 10, 1);
        let cmp = 0;
        if (cmp < (cmp = 5)) { cmp = cmp + 100; }
        let self = { v: 1, next: null };
        let first = self;
        self.next = (self = { v: 2, next: null }, self);
        let d = "ab";
        d += d;
        d += d + "!";
        let m = 1.5;
        m += m;
        return [a, b, x, o.k, o.j, key, c, i, s, t, u, n, cmp, self.v, self.next,
                first.next.v, d, m].join(",");
      }
      let result = f();
    )"},
    {"assignments-whose-value-reads-the-target", R"(
      function f() {
        let x = 1;
        x = { prev: x };
        let y = 0;
        y = 5 && y;
        let z = "a";
        z = (z + "b", z + "c");
        let w = 2;
        w = w > 1 ? { w: w } : w;
        let v = 3;
        v = (v = v + 1) + v;
        let q = 4;
        q = q || 9;
        let arr = [1];
        arr = [arr.length, ...arr];
        return [x.prev, y, z, w.w, v, q, arr.join("")].join(",");
      }
      let result = f();
    )"},
    {"constant-operands-both-sides", R"(
      function f() {
        let x = 7;
        let s = "12";
        let h = "ab";
        let z = 0;
        let n = null;
        return [x % 3, 10 % x, x - 2, 10 - x, s % 5, 100 % s, s - 1, 20 - s, h - 1, 1 - h,
                x % 0, 0 % x, 1 / (z - 0), 1 / (0 - z), 1 / (z * -1), n - 1, 1 - n,
                x * 1.5, 2 ** x, x + 1, 1 + x, s + 1, 1 + s, h % 2, 5.5 % 2, -7 % 2,
                x < 8, 8 < x, x === 7, 7 !== x].join(",");
      }
      let result = f();
    )"},
};

// --- declared names of anonymous function initializers ---------------------

// `let x = <init>` names an anonymous function value after `x`; a function's
// name shows in its display string ("[function x]"). The compiler drops the
// naming instruction only for initializers that can never be a function, so
// these rows keep it for `?:`, `,`, `||`, `&&`, `??`, calls and `this`, on
// both register locals (inside `f`) and global slots.
constexpr DiffProgram kFnNamePrograms[] = {
    {"fn-name-from-non-literal-initializers", R"(
      function f(flag) {
        let pick = flag ? () => 1 : 0;
        let seq = (0, () => 2);
        let either = null || function () {};
        return "" + pick + seq + either;
      }
      let viaTernary = true ? function () { return 1; } : null;
      let viaSequence = (0, () => 2);
      let viaLogical = null || (() => 3);
      let viaAnd = 1 && function () {};
      let viaNullish = undefined ?? (() => 4);
      let viaCall = (() => () => 5)();
      let viaThis = (function () { let me = this; return "" + me; }).call(() => 6);
      let named = 0 || function inner() {};
      let plain = 1 + 2;
      let result = [f(true), f(false), "" + viaTernary, "" + viaSequence, "" + viaLogical,
                    "" + viaAnd, "" + viaNullish, "" + viaCall, viaThis, "" + named,
                    plain].join("|");
    )"},
};

TEST(VmDifferentialTest, AnonymousFunctionInitializersTakeTheDeclaredName) {
  ExpectTiersAgree(kFnNamePrograms, sizeof(kFnNamePrograms) / sizeof(kFnNamePrograms[0]),
                   /*with_tracker=*/false);
  TierOutcome fused = RunTier(kFnNamePrograms[0].source, ExecTier::kBytecode, false);
  EXPECT_EQ(fused.result,
            "[function pick][function seq][function either]|0[function seq][function either]|"
            "[function viaTernary]|[function viaSequence]|[function viaLogical]|"
            "[function viaAnd]|[function viaNullish]|[function viaCall]|[function me]|"
            "[function inner]|3");
}

// --- DIFT programs (tracker installed, violations compared) ------------------

constexpr const char* kBoxedAddAssignSource = R"(
      function f() {
        let s = __dift.label("sec", "secret");
        let sink = __dift.label({ port: 1 }, "public");
        s += "-tail";
        s += 7;
        let flagged = __dift.check(s, sink);
        let t = __dift.label("lab", "secret");
        t += __dift.label("el", "public");
        return s + "/" + flagged + "/" + t + "/" + __dift.labelsOf(s) + "/" + __dift.labelsOf(t);
      }
      let result = f();
    )";

constexpr DiffProgram kDiftPrograms[] = {
    {"boxed-string-methods", R"(
      let s = __dift.label("Secret Data", "secret");
      let result = s.toLowerCase() + "/" + s.length + "/" + s.includes("Data");
    )"},
    {"boxed-in-arrays", R"(
      let x = __dift.label("b", "secret");
      let xs = ["a", x, "c"];
      let result = xs.join("-") + "/" + xs.indexOf(x);
    )"},
    {"boxed-number-branches", R"(
      let n = __dift.label(5, "secret");
      let result = (n > 3 ? "big" : "small") + "/" + (n === 5);
    )"},
    {"boxed-key-index", R"(
      let key = __dift.label("door", "secret");
      let state = { door: "locked" };
      let result = state[key];
    )"},
    {"json-unwraps-boxes", R"(
      let v = __dift.label("x", "secret");
      let result = JSON.stringify({ field: v });
    )"},
    {"check-allowed-flow", R"(
      let data = __dift.label({ id: 1 }, "public");
      let receiver = __dift.label({ sinkish: true }, "secret");
      let result = __dift.check(data, receiver);
    )"},
    {"check-forbidden-flow", R"(
      let data = __dift.label({ id: 1 }, "secret");
      let receiver = __dift.label({ sinkish: true }, "public");
      let result = __dift.check(data, receiver);
    )"},
    {"invoke-blocks-violation", R"(
      let sent = [];
      let mailer = { send: (to, body) => { sent.push(to); return "ok"; } };
      __dift.label(mailer, "mailerByRecipient");
      let frame = __dift.label("face-frame", "secret");
      __dift.invoke(mailer, "send", ["boss", frame]);
      __dift.invoke(mailer, "send", ["intern", frame]);
      let result = sent;
    )"},
    {"binary-op-compound-label", R"(
      let a = __dift.label("le", "secret");
      let b = __dift.label("ak", "public");
      let joined = __dift.binaryOp("+", a, b);
      let result = __dift.labelsOf(joined);
    )"},
    {"labels-flow-in-loops", R"(
      let acc = "";
      for (let part of [__dift.label("a", "secret"), "b"]) {
        acc = acc + part;
      }
      let result = acc + "/" + __dift.labelsOf(acc);
    )"},
    // $const declassification applied to a kBinaryLabelled result: the fused
    // opcode's output must be a first-class labelled value that later label()
    // calls can re-label, exactly as the call-lowered binaryOp's output is.
    {"declassify-through-binary", R"(
      let secret = __dift.label("s", "secret");
      let joined = __dift.binaryOp("+", secret, "-tail");
      let declassified = __dift.label(joined, "public");
      let result = __dift.labelsOf(declassified) + "/" + declassified;
    )"},
    // A wildcard (any-method) $invoke labeller must fire at kCallLabelled
    // sites: the {target, any} probe happens inside the fused tracker entry,
    // not in MiniScript glue. First write carries a public-labelled argument
    // into the secret-labelled sink (blocked); the second is clean.
    {"wildcard-invoke-labeller", R"(
      let written = [];
      let device = { write: (line) => { written.push(line); return written.length; } };
      __dift.label(device, "anySink");
      let note = __dift.label("note", "public");
      __dift.invoke(device, "write", [note]);
      __dift.invoke(device, "write", ["plain"]);
      let result = written.length;
    )"},
    // Deep-label memo invalidation: the first check memoizes msg's (empty)
    // deep label set; the labelled store `msg.body = secret` runs through
    // kSetPropLabelled, which must bump the heap write epoch so the second
    // check recomputes and sees the secret.
    {"memo-invalidation-on-labelled-store", R"(
      let secret = __dift.label("payload", "secret");
      let sink = __dift.label({ port: 1 }, "public");
      let msg = { body: "hello" };
      let before = __dift.check(msg, sink);
      msg.body = secret;
      let after = __dift.check(msg, sink);
      let result = "" + before + "/" + after;
    )"},
    // `+=` whose slot holds a labelled (boxed) string: never the in-place
    // path, and its monitor decisions are pinned below.
    {"add-assign-boxed-target", kBoxedAddAssignSource},
    // The fused loop ops on labelled boxes: each falls back to the unboxing
    // path, so results and monitor decisions match the oracle tiers.
    {"register-local-ops-on-labelled-boxes", R"(
      function f() {
        let n = __dift.label(5, "secret");
        n++;
        let m = __dift.label(7, "secret");
        let old = m++;
        let k = __dift.label("3", "public");
        k--;
        let hits = 0;
        let lim = __dift.label(4, "secret");
        for (let i = 0; i < lim; i++) { hits++; }
        if (lim === 4) { hits += 10; }
        let r = lim % 3;
        let l = 10 - lim;
        let sink = __dift.label({ port: 1 }, "public");
        let flagged = __dift.check(lim, sink);
        return [n, old, m, k, hits, r, l, flagged, __dift.labelsOf(n), __dift.labelsOf(lim)]
            .join("/");
      }
      let result = f();
    )"},
};

TEST(VmDifferentialTest, EvalProgramsAgreeAcrossTiers) {
  ExpectTiersAgree(kEvalPrograms, sizeof(kEvalPrograms) / sizeof(kEvalPrograms[0]),
                   /*with_tracker=*/false);
}

TEST(VmDifferentialTest, SemanticsProgramsAgreeAcrossTiers) {
  ExpectTiersAgree(kSemanticsPrograms,
                   sizeof(kSemanticsPrograms) / sizeof(kSemanticsPrograms[0]),
                   /*with_tracker=*/false);
}

TEST(VmDifferentialTest, AddAssignProgramsAgreeAcrossTiers) {
  ExpectTiersAgree(kAddAssignPrograms,
                   sizeof(kAddAssignPrograms) / sizeof(kAddAssignPrograms[0]),
                   /*with_tracker=*/false);
}

// What the `+=` rows printed before kAddSlot existed: agreeing tiers are not
// enough when all three share the changed string-building code.
TEST(VmDifferentialTest, AddAssignResultsArePinned) {
  constexpr const char* kExpected[] = {
      "x|xy",
      "01234|0123456789",
      "xw|pr",
      "ab!|ab!!",
      "ababababab-",
      "v1.5trueundefinednull{ k: 1, t: \"x\" }[1, a]-0[function ]",
      "3,13,2,number,{ k: 1 }!,0",
      "4950,0.3,-Infinity,NaN,9.00719925474e+15,3.5",
      "ab",
      "ab1c|xyxy",
      "8890/true/0,1,2,3,/1998,1999,",
  };
  static_assert(sizeof(kExpected) / sizeof(kExpected[0]) ==
                sizeof(kAddAssignPrograms) / sizeof(kAddAssignPrograms[0]));
  for (size_t i = 0; i < sizeof(kExpected) / sizeof(kExpected[0]); ++i) {
    SCOPED_TRACE(kAddAssignPrograms[i].name);
    TierOutcome fused =
        RunTier(kAddAssignPrograms[i].source, ExecTier::kBytecode, /*with_tracker=*/false);
    EXPECT_EQ(fused.run_status, "");
    EXPECT_EQ(fused.result, kExpected[i]);
  }
}

TEST(VmDifferentialTest, RegisterLocalProgramsAgreeAcrossTiers) {
  ExpectTiersAgree(kRegisterLocalPrograms,
                   sizeof(kRegisterLocalPrograms) / sizeof(kRegisterLocalPrograms[0]),
                   /*with_tracker=*/false);
}

TEST(VmDifferentialTest, DiftProgramsAgreeAcrossTiers) {
  ExpectTiersAgree(kDiftPrograms, sizeof(kDiftPrograms) / sizeof(kDiftPrograms[0]),
                   /*with_tracker=*/true);
}

// The boxed-target `+=` row's monitor decisions, pinned as the tiers recorded
// them before `+=` on slot locals got its own opcode.
TEST(VmDifferentialTest, BoxedAddAssignKeepsItsCanonicalLog) {
  TierOutcome fused = RunTier(kBoxedAddAssignSource, ExecTier::kBytecode, /*with_tracker=*/true);
  EXPECT_EQ(fused.run_status, "");
  EXPECT_EQ(fused.result, "sec-tail7/true/label/[]/[]");
  EXPECT_EQ(fused.audit,
            "#1 label_attach[secret] data=0 recv=0 out=1 {secret} trace=0\n"
            "#2 label_attach[public] data=0 recv=0 out=2 {public} trace=0\n"
            "#3 flow_check[check] data=0 recv=2 out=0 allow {} vs {public} "
            "rule='empty-data' trace=0\n"
            "#4 label_attach[secret] data=0 recv=0 out=1 {secret} trace=0\n"
            "#5 label_attach[public] data=0 recv=0 out=2 {public} trace=0\n");
}

// The same Program object (and therefore the same cached chunks) must be
// runnable by both tiers: compiled chunks capture resolver coordinates, not a
// particular Interpreter or tier.
TEST(VmDifferentialTest, SharedProgramRunsUnderBothTiers) {
  auto program = ParseProgram(
      "function twice(x) { return x * 2; } let result = twice(20) + 2;");
  ASSERT_TRUE(program.ok());
  for (ExecTier tier : {ExecTier::kBytecode, ExecTier::kBytecodeLowered, ExecTier::kTreeWalk,
                        ExecTier::kBytecode}) {
    Interpreter interp;
    interp.set_exec_tier(tier);
    ASSERT_TRUE(interp.RunProgram(*program).ok());
    EXPECT_EQ(interp.global_env()->Lookup("result")->ToDisplayString(), "42");
  }
}

}  // namespace
}  // namespace turnstile
