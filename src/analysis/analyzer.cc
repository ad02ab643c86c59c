#include "src/analysis/analyzer.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/lang/atoms.h"
#include "src/obs/metrics.h"
#include "src/support/stopwatch.h"

namespace turnstile {

namespace {

// One sorted int list per graph node, all packed into a single pool: no
// allocation per node, and iteration in ascending order. A list that outgrows
// its block grows in place when it is the pool's last block, else moves to the
// pool's end with twice the room (the old block is abandoned).
class NodeLists {
 public:
  NodeLists(int nodes, size_t pool_reserve) : blocks_(static_cast<size_t>(nodes)) {
    pool_.reserve(pool_reserve);
  }

  std::span<const int> operator[](int node) const {
    const Block& block = blocks_[static_cast<size_t>(node)];
    return {pool_.data() + block.offset, block.size};
  }
  bool empty(int node) const { return blocks_[static_cast<size_t>(node)].size == 0; }

  // Position of the first element >= value in node's list.
  uint32_t LowerBound(int node, int value) const {
    std::span<const int> list = (*this)[node];
    uint32_t lo = 0;
    uint32_t hi = static_cast<uint32_t>(list.size());
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (list[mid] < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void Set(int node, uint32_t pos, int value) {
    pool_[blocks_[static_cast<size_t>(node)].offset + pos] = value;
  }

  // Inserts `value` at `pos`; the caller keeps the list sorted.
  void InsertAt(int node, uint32_t pos, int value) {
    Block& block = blocks_[static_cast<size_t>(node)];
    if (block.size == block.capacity) {
      const uint32_t capacity = block.capacity == 0 ? 2 : block.capacity * 2;
      if (block.capacity != 0 && block.offset + block.capacity == pool_.size()) {
        pool_.resize(block.offset + capacity);
      } else {
        const uint32_t offset = static_cast<uint32_t>(pool_.size());
        pool_.resize(offset + capacity);
        if (block.size != 0) {
          std::memcpy(pool_.data() + offset, pool_.data() + block.offset,
                      block.size * sizeof(int));
        }
        block.offset = offset;
      }
      block.capacity = capacity;
    }
    int* list = pool_.data() + block.offset;
    std::memmove(list + pos + 1, list + pos, (block.size - pos) * sizeof(int));
    list[pos] = value;
    ++block.size;
  }

  // Adds `value`; false when it was already present.
  bool Insert(int node, int value) {
    uint32_t pos = LowerBound(node, value);
    std::span<const int> list = (*this)[node];
    if (pos < list.size() && list[pos] == value) {
      return false;
    }
    InsertAt(node, pos, value);
    return true;
  }

  // Adds every element of src's list to dst's; true when dst grew.
  bool UnionInto(int dst, int src) {
    bool grew = false;
    const Block& from = blocks_[static_cast<size_t>(src)];
    for (uint32_t i = 0; i < from.size; ++i) {
      grew |= Insert(dst, pool_[from.offset + i]);  // by value: Insert may grow the pool
    }
    return grew;
  }

 private:
  struct Block {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  std::vector<Block> blocks_;
  std::vector<int> pool_;
};

// A taint seed: where the analysis starts tracking.
struct SourceSeed {
  int graph_node = -1;
  int report_ast = -1;
  std::string description;
};

// A sink call with the argument nodes that must not receive tainted data.
struct SinkSite {
  int call_ast = -1;
  std::vector<int> data_arg_nodes;  // graph node ids
  std::string description;
};

// Callee and property names the call-site scan special-cases.
struct CallAtoms {
  Atom require = InternAtom("require");
  Atom nodes = InternAtom("nodes");
  Atom create_node = InternAtom("createNode");
  Atom register_type = InternAtom("registerType");
  Atom on = InternAtom("on");
  Atom once = InternAtom("once");
  Atom then = InternAtom("then");
  Atom catch_ = InternAtom("catch");
  Atom subscribe = InternAtom("subscribe");
  Atom listen = InternAtom("listen");
  Atom push = InternAtom("push");
};

const CallAtoms& Atoms() {
  static const CallAtoms atoms;
  return atoms;
}

// The catalog rules one (receiver tag, property) pair selects.
struct RuleMatch {
  const CallTypeRule* call_type = nullptr;
  std::vector<const CallbackSourceRule*> callbacks;  // catalog order; events differ
  const ReturnSourceRule* return_source = nullptr;
  const SinkRule* sink = nullptr;
};

struct AnalysisMetrics {
  obs::Counter* runs;
  obs::Histogram* scope_seconds;
  obs::Histogram* fixpoint_seconds;
  obs::Histogram* taint_seconds;
  obs::Counter* paths_found;

  static const AnalysisMetrics& Get() {
    static const AnalysisMetrics metrics = [] {
      obs::Metrics& global = obs::Metrics::Global();
      return AnalysisMetrics{global.GetCounter("analysis.runs"),
                             global.GetHistogram("analysis.scope_seconds"),
                             global.GetHistogram("analysis.fixpoint_seconds"),
                             global.GetHistogram("analysis.taint_seconds"),
                             global.GetCounter("analysis.paths_found")};
    }();
    return metrics;
  }
};

// The value-flow graph lives in flat, node-indexed arrays. Out-edges are
// stored as `v * 2 + no_tag`, sorted by target, so one list carries both the
// adjacency (ascending, which fixes BFS witness chains) and the per-edge
// no-tag flag. The fixpoint is incremental on both sides: PropagateSets
// starts from the nodes whose sets or out-edges changed since it last ran,
// and ScanCallSites rescans only the call sites whose inputs (the funcs,
// tags and instance sets of their callee, receiver and arguments) grew since
// their last scan. Every scan effect is idempotent and monotone, so a skipped
// site is exactly one whose rescan would have changed nothing: the rounds,
// their `changed` results and the discovery order of sources and sinks are
// those of a full rescan.
class Analyzer {
 public:
  Analyzer(const Program& program, const Catalog& catalog)
      : resolved_(ResolveScopes(program)),
        catalog_(catalog),
        out_(resolved_.total_nodes(), 4 * static_cast<size_t>(resolved_.total_nodes())),
        funcs_(resolved_.total_nodes(), 0),
        instance_classes_(resolved_.total_nodes(), 0),
        tags_(resolved_.total_nodes(), 0),
        queued_(static_cast<size_t>(resolved_.total_nodes()), 0) {}

  Result<AnalysisResult> Run(const AnalysisMetrics& metrics) {
    Stopwatch fixpoint_watch;
    BuildGenericEdges();
    IndexCallSiteReaders();
    SeedFunctionValues();
    // Combined points-to / type-inference / call-resolution fixpoint.
    int rounds = 0;
    bool changed = true;
    while (changed && rounds < 64) {
      ++rounds;
      PropagateSets();
      changed = ScanCallSites();
    }
    metrics.fixpoint_seconds->Observe(fixpoint_watch.ElapsedSeconds());
    AnalysisResult result;
    result.stats.fixpoint_rounds = rounds;
    result.stats.graph_nodes = resolved_.total_nodes();
    result.stats.graph_edges = edge_count_;
    result.stats.sources_found = static_cast<int>(sources_.size());
    result.stats.sinks_found = static_cast<int>(sinks_.size());
    Stopwatch taint_watch;
    RunTaint(&result);
    metrics.taint_seconds->Observe(taint_watch.ElapsedSeconds());
    metrics.paths_found->Increment(result.paths.size());
    return result;
  }

 private:
  // --- graph helpers ---------------------------------------------------------

  // Member/index *read* edges (no_tag) carry taint and function values, but
  // not type tags: reading node.transport must not make the transport look
  // like the node itself. An edge added both ways stays a read edge.
  bool AddEdge(int u, int v, bool no_tag = false) {
    if (u < 0 || v < 0 || u == v) {
      return false;
    }
    const uint32_t pos = out_.LowerBound(u, v * 2);
    std::span<const int> out = out_[u];
    if (pos < out.size() && out[pos] >> 1 == v) {
      if (no_tag) {
        out_.Set(u, pos, out[pos] | 1);
      }
      return false;
    }
    out_.InsertAt(u, pos, v * 2 + (no_tag ? 1 : 0));
    ++edge_count_;
    if (HasSets(u)) {
      Queue(u);  // the new edge needs propagating
    }
    return true;
  }

  bool HasSets(int node) const {
    return !funcs_.empty(node) || !instance_classes_.empty(node) || !tags_.empty(node);
  }

  void Queue(int node) {
    if (!queued_[static_cast<size_t>(node)]) {
      queued_[static_cast<size_t>(node)] = 1;
      worklist_.push_back(node);
    }
  }

  // A node's sets grew: propagate them, and rescan the call sites reading it.
  void SetsGrew(int node) {
    Queue(node);
    if (node < resolved_.ast_count) {
      for (int k = reader_offsets_[static_cast<size_t>(node)];
           k < reader_offsets_[static_cast<size_t>(node) + 1]; ++k) {
        site_dirty_[static_cast<size_t>(readers_[static_cast<size_t>(k)])] = 1;
      }
    }
  }

  const NodePtr& Ast(int id) const { return resolved_.ast_by_id[static_cast<size_t>(id)]; }

  // Binding node an identifier use resolves to, or -1.
  int UseBinding(const NodePtr& node) const { return resolved_.UseBinding(node->id); }

  // Graph node representing the *value* flowing out of an expression. For
  // identifiers this is the use node itself (which the binding feeds).
  int ValueNode(const NodePtr& node) const { return node->id; }

  // The binding node written by assigning through a member/index chain:
  // follows children[0] to the base identifier/this. -1 when anonymous.
  int RootBindingOfTarget(const NodePtr& target) const {
    const Node* base = target.get();
    while (base->kind == NodeKind::kMemberExpr || base->kind == NodeKind::kIndexExpr ||
           base->kind == NodeKind::kCallExpr) {
      base = base->children[0].get();
    }
    if (base->kind == NodeKind::kIdentifier || base->kind == NodeKind::kThisExpr) {
      return resolved_.UseBinding(base->id);
    }
    return base->id;
  }

  // --- generic intraprocedural edges ------------------------------------------

  void BuildGenericEdges() {
    WalkForEdges(resolved_.program->root, /*fn_index=*/-1);
    // Identifier/this uses: binding feeds every use site.
    for (int use_ast = 0; use_ast < resolved_.ast_count; ++use_ast) {
      AddEdge(resolved_.UseBinding(use_ast), use_ast);
    }
  }

  void WalkForEdges(const NodePtr& node, int fn_index) {
    // Recurse first so children exist in the call-site list before parents.
    int child_fn = fn_index;
    if (node->IsFunctionLike()) {
      int fn = resolved_.FunctionIndex(node->id);
      if (fn >= 0) {
        child_fn = fn;
      }
    }
    for (const NodePtr& child : node->children) {
      WalkForEdges(child, child_fn);
    }

    switch (node->kind) {
      case NodeKind::kVarDecl:
        for (const NodePtr& declarator : node->children) {
          if (!declarator->children.empty()) {
            AddEdge(ValueNode(declarator->children[0]), resolved_.DeclBinding(declarator->id));
          }
        }
        return;
      case NodeKind::kAssignExpr: {
        const NodePtr& target = node->children[0];
        const NodePtr& value = node->children[1];
        AddEdge(ValueNode(value), node->id);
        // A write through a member/index target is field-insensitive: the
        // whole container becomes tainted.
        int binding = RootBindingOfTarget(target);
        AddEdge(ValueNode(value), binding);
        if (node->str != "=") {
          AddEdge(binding, node->id);  // compound read …
          AddEdge(node->id, binding);  // … and the derived result flows back
        }
        return;
      }
      case NodeKind::kBinaryExpr:
      case NodeKind::kLogicalExpr:
        AddEdge(ValueNode(node->children[0]), node->id);
        AddEdge(ValueNode(node->children[1]), node->id);
        return;
      case NodeKind::kUnaryExpr:
      case NodeKind::kUpdateExpr:
      case NodeKind::kAwaitExpr:
      case NodeKind::kSpreadElement:
        AddEdge(ValueNode(node->children[0]), node->id);
        return;
      case NodeKind::kConditionalExpr:
        AddEdge(ValueNode(node->children[1]), node->id);
        AddEdge(ValueNode(node->children[2]), node->id);
        return;
      case NodeKind::kSequenceExpr:
        AddEdge(ValueNode(node->children.back()), node->id);
        return;
      case NodeKind::kArrayLit:
        for (const NodePtr& element : node->children) {
          AddEdge(ValueNode(element), node->id);
        }
        return;
      case NodeKind::kObjectLit:
        for (const NodePtr& prop : node->children) {
          const NodePtr& value = prop->num != 0 ? prop->children[1] : prop->children[0];
          AddEdge(ValueNode(value), node->id);
        }
        return;
      case NodeKind::kMemberExpr:
      case NodeKind::kIndexExpr:
        // Field-insensitive read (taint + function values, not type tags).
        AddEdge(ValueNode(node->children[0]), node->id, /*no_tag=*/true);
        return;
      case NodeKind::kForOfStmt:
        AddEdge(ValueNode(node->children[1]), resolved_.DeclBinding(node->children[0]->id));
        return;
      case NodeKind::kReturnStmt: {
        if (!node->children.empty() && fn_index >= 0) {
          AddEdge(ValueNode(node->children[0]),
                  resolved_.functions[static_cast<size_t>(fn_index)].return_binding);
        }
        return;
      }
      case NodeKind::kArrowFunction: {
        // Expression body is an implicit return.
        int fn = resolved_.FunctionIndex(node->id);
        if (fn >= 0 && node->children[1]->kind != NodeKind::kBlockStmt) {
          AddEdge(ValueNode(node->children[1]),
                  resolved_.functions[static_cast<size_t>(fn)].return_binding);
        }
        return;
      }
      case NodeKind::kCallExpr:
      case NodeKind::kNewExpr:
        call_sites_.push_back(node->id);
        return;
      case NodeKind::kFunctionDecl:
        AddEdge(node->id, resolved_.DeclBinding(node->id));
        return;
      default:
        return;
    }
  }

  // The AST nodes whose sets a call site's scan reads: the callee, the
  // receiver of a member/index callee, and every argument.
  template <typename Fn>
  static void ForEachSiteInput(const NodePtr& call, Fn&& fn) {
    const NodePtr& callee = call->children[0];
    fn(callee->id);
    if (callee->kind == NodeKind::kMemberExpr || callee->kind == NodeKind::kIndexExpr) {
      fn(callee->children[0]->id);
    }
    for (size_t i = 1; i < call->children.size(); ++i) {
      fn(call->children[i]->id);
    }
  }

  // Builds the reverse index from each AST node to the call sites reading it
  // (CSR: readers_[reader_offsets_[n] .. reader_offsets_[n + 1])), and marks
  // every site dirty for the first scan.
  void IndexCallSiteReaders() {
    const size_t ast_count = static_cast<size_t>(resolved_.ast_count);
    reader_offsets_.assign(ast_count + 1, 0);
    for (int call_ast : call_sites_) {
      ForEachSiteInput(Ast(call_ast), [&](int node) {
        if (node >= 0) {
          ++reader_offsets_[static_cast<size_t>(node) + 1];
        }
      });
    }
    for (size_t i = 0; i < ast_count; ++i) {
      reader_offsets_[i + 1] += reader_offsets_[i];
    }
    readers_.resize(static_cast<size_t>(reader_offsets_[ast_count]));
    std::vector<int> cursor(reader_offsets_.begin(), reader_offsets_.end() - 1);
    for (size_t site = 0; site < call_sites_.size(); ++site) {
      ForEachSiteInput(Ast(call_sites_[site]), [&](int node) {
        if (node >= 0) {
          readers_[static_cast<size_t>(cursor[static_cast<size_t>(node)]++)] =
              static_cast<int>(site);
        }
      });
    }
    site_dirty_.assign(call_sites_.size(), 1);
  }

  void SeedFunctionValues() {
    for (size_t fi = 0; fi < resolved_.functions.size(); ++fi) {
      int ast_id = resolved_.functions[fi].ast_id;
      funcs_.Insert(ast_id, static_cast<int>(fi));
      Queue(ast_id);
    }
  }

  // Propagates funcs/instance/tag sets along edges to a local fixpoint,
  // worklist-driven (near-linear in practice — the specialization that makes
  // Turnstile fast). The worklist holds the nodes whose sets or out-edges
  // changed since the last call; every other edge already satisfies
  // sets(u) ⊆ sets(v).
  void PropagateSets() {
    for (size_t head = 0; head < worklist_.size(); ++head) {
      const int u = worklist_[head];
      queued_[static_cast<size_t>(u)] = 0;
      for (int edge : out_[u]) {
        const int v = edge >> 1;
        bool grew = funcs_.UnionInto(v, u);
        grew |= instance_classes_.UnionInto(v, u);
        if ((edge & 1) == 0) {
          grew |= tags_.UnionInto(v, u);
        }
        if (grew) {
          SetsGrew(v);
        }
      }
    }
    worklist_.clear();
  }

  int InternTag(const std::string& tag) {
    auto [it, inserted] = tag_ids_.try_emplace(tag, static_cast<int>(tag_names_.size()));
    if (inserted) {
      tag_names_.push_back(tag);
    }
    return it->second;
  }

  // Tag ids are interned on first add, so ascending id order — the order a
  // node's tags are matched against the catalog — is first-seen order.
  bool AddTag(int node, const std::string& tag) {
    if (node < 0) {
      return false;
    }
    if (!tags_.Insert(node, InternTag(tag))) {
      return false;
    }
    SetsGrew(node);
    return true;
  }

  bool AddSourceSeed(int graph_node, int report_ast, const std::string& description) {
    if (graph_node < 0) {
      return false;
    }
    for (const SourceSeed& seed : sources_) {
      if (seed.graph_node == graph_node) {
        return false;
      }
    }
    sources_.push_back({graph_node, report_ast, description});
    return true;
  }

  bool AddSink(int call_ast, std::vector<int> data_args, const std::string& description) {
    for (const SinkSite& sink : sinks_) {
      if (sink.call_ast == call_ast) {
        return false;
      }
    }
    sinks_.push_back({call_ast, std::move(data_args), description});
    return true;
  }

  // The catalog rules for (tag, property), looked up once per analysis.
  const RuleMatch& Rules(int tag, Atom property, const std::string& property_name) {
    const uint64_t key = static_cast<uint64_t>(tag) << 32 | property;
    auto [it, inserted] = rule_cache_.try_emplace(key);
    RuleMatch& match = it->second;
    if (!inserted) {
      return match;
    }
    const std::string& tag_name = tag_names_[static_cast<size_t>(tag)];
    match.call_type = catalog_.FindCallType(tag_name, property_name);
    for (const CallbackSourceRule& rule : catalog_.callback_sources) {
      if (rule.receiver_tag == tag_name && rule.property == property_name) {
        match.callbacks.push_back(&rule);
      }
    }
    match.return_source = catalog_.FindReturnSource(tag_name, property_name);
    match.sink = catalog_.FindSink(tag_name, property_name);
    return match;
  }

  // The `.on("event", ...)` event string, or "".
  const std::string& EventName(const NodePtr& call) const {
    if (call->children.size() > 1 && call->children[1]->kind == NodeKind::kStringLit) {
      return call->children[1]->str;
    }
    return kNoName;
  }

  // Resolves the index of the callback argument (-1 rule = last arg).
  int CallbackArgIndex(const NodePtr& call, int rule_index) const {
    int arg_count = static_cast<int>(call->children.size()) - 1;
    if (arg_count == 0) {
      return -1;
    }
    if (rule_index < 0) {
      return arg_count - 1;
    }
    return rule_index < arg_count ? rule_index : -1;
  }

  // One pass over the dirty call sites, in call_sites_ order. A site marked
  // dirty by an earlier site of the same pass is scanned in this pass, as a
  // full rescan would see that site's additions. Returns true when anything
  // (edge/tag/seed/sink) was added.
  bool ScanCallSites() {
    bool changed = false;
    for (size_t site = 0; site < call_sites_.size(); ++site) {
      if (site_dirty_[site]) {
        site_dirty_[site] = 0;
        changed |= ScanCallSite(Ast(call_sites_[site]));
      }
    }
    return changed;
  }

  // Applies catalog rules to one call site and resolves its callees.
  bool ScanCallSite(const NodePtr& call) {
    const CallAtoms& atoms = Atoms();
    const int call_ast = call->id;
    const NodePtr& callee = call->children[0];
    const size_t child_count = call->children.size();
    bool changed = false;

    // require("x") — the type seed.
    if (callee->kind == NodeKind::kIdentifier && callee->atom == atoms.require &&
        UseBinding(callee) < 0 && child_count > 1 &&
        call->children[1]->kind == NodeKind::kStringLit) {
      return AddTag(call_ast, "module:" + call->children[1]->str);
    }

    Atom property = kAtomEmpty;
    int receiver_node = -1;
    if (callee->kind == NodeKind::kMemberExpr) {
      property = callee->atom;
      receiver_node = callee->children[0]->id;
    } else if (callee->kind == NodeKind::kIndexExpr) {
      // Dynamic property call foo[x](y): over-approximation handles the
      // function set; catalog rules need a static name and don't apply.
      receiver_node = callee->children[0]->id;
    }
    const std::string& property_name =
        callee->kind == NodeKind::kMemberExpr ? callee->str : kNoName;
    const NodePtr& receiver = callee->kind == NodeKind::kMemberExpr ? callee->children[0] : callee;

    // RED.nodes.createNode(this, config): tags `this` of the enclosing
    // function as a Node-RED node.
    if (property == atoms.create_node && receiver->kind == NodeKind::kMemberExpr &&
        receiver->atom == atoms.nodes && child_count > 1) {
      int binding = UseBinding(call->children[1]);
      if (binding < 0) {
        binding = call->children[1]->id;
      }
      changed |= AddTag(binding, "rednode");
    }
    // RED.nodes.registerType("name", Ctor): the constructor's `this` is a
    // Node-RED node.
    if (property == atoms.register_type && receiver->kind == NodeKind::kMemberExpr &&
        receiver->atom == atoms.nodes && child_count > 2) {
      for (int fi : funcs_[call->children[2]->id]) {
        changed |= AddTag(resolved_.functions[static_cast<size_t>(fi)].this_binding, "rednode");
      }
    }

    // Catalog rules match receiver tags (member calls) or callee tags (direct
    // calls, rules with an empty property). Tags are read by index: adding
    // one to the call node may move the pool, never the receiver's list.
    bool catalog_handled = false;
    const bool is_event = property == atoms.on || property == atoms.once;
    const int tagged = receiver_node >= 0 ? receiver_node : callee->id;
    for (size_t t = 0; t < tags_[tagged].size(); ++t) {
      const RuleMatch& rules = Rules(tags_[tagged][t], property, property_name);
      if (receiver_node < 0) {
        if (rules.call_type != nullptr) {
          changed |= AddTag(call_ast, rules.call_type->result_tag);
        }
        continue;
      }
      if (rules.call_type != nullptr) {
        changed |= AddTag(call_ast, rules.call_type->result_tag);
        catalog_handled = true;
      }
      const std::string& event = is_event ? EventName(call) : kNoName;
      for (const CallbackSourceRule* rule : rules.callbacks) {
        if (!rule->event.empty() && rule->event != event) {
          continue;
        }
        catalog_handled = true;
        int cb_index = CallbackArgIndex(call, rule->callback_arg);
        if (cb_index >= 0) {
          int cb_node = call->children[static_cast<size_t>(cb_index) + 1]->id;
          for (int fi : funcs_[cb_node]) {
            const FunctionScopeInfo& fn = resolved_.functions[static_cast<size_t>(fi)];
            if (rule->taint_param >= 0 &&
                rule->taint_param < static_cast<int>(fn.param_bindings.size())) {
              changed |= AddSourceSeed(fn.param_bindings[static_cast<size_t>(rule->taint_param)],
                                       call_ast, rule->description);
            }
            if (rule->tag_param >= 0 &&
                rule->tag_param < static_cast<int>(fn.param_bindings.size())) {
              changed |= AddTag(fn.param_bindings[static_cast<size_t>(rule->tag_param)],
                                rule->param_tag);
            }
          }
        }
        break;  // the first matching rule applies
      }
      if (rules.return_source != nullptr) {
        changed |= AddSourceSeed(call_ast, call_ast, rules.return_source->description);
        catalog_handled = true;
      }
      if (const SinkRule* rule = rules.sink) {
        std::vector<int> data_args;
        if (rule->data_args.size() == 1 && rule->data_args[0] == -1) {
          for (size_t i = 1; i < child_count; ++i) {
            data_args.push_back(call->children[i]->id);
          }
        } else {
          for (int index : rule->data_args) {
            if (index >= 0 && index + 1 < static_cast<int>(child_count)) {
              data_args.push_back(call->children[static_cast<size_t>(index) + 1]->id);
            }
          }
        }
        changed |= AddSink(call_ast, std::move(data_args), rule->description);
        catalog_handled = true;
      }
    }

    // Promise pass-through: x.then(cb) forwards x's taint into cb's first
    // parameter (await is handled by a generic edge).
    if (property == atoms.then || property == atoms.catch_) {
      int cb_index = CallbackArgIndex(call, 0);
      if (cb_index >= 0) {
        int cb_node = call->children[static_cast<size_t>(cb_index) + 1]->id;
        for (int fi : funcs_[cb_node]) {
          const FunctionScopeInfo& fn = resolved_.functions[static_cast<size_t>(fi)];
          if (!fn.param_bindings.empty()) {
            changed |= AddEdge(receiver_node, fn.param_bindings[0]);
          }
          // The .then() result carries the handler's return value.
          changed |= AddEdge(fn.return_binding, call_ast);
        }
      }
      catalog_handled = true;
    }

    // Resolve user-defined callees: identifiers, properties, dynamic
    // bracket calls — all through the propagated function-value sets.
    bool resolved_user_fn = false;
    for (int fi : funcs_[callee->id]) {
      resolved_user_fn = true;
      changed |= ConnectCall(call, resolved_.functions[static_cast<size_t>(fi)], receiver_node);
    }

    // Class instantiation and method resolution. Turnstile resolves methods
    // on a class's OWN method table only — inherited (prototype-chain)
    // methods are its documented blind spot.
    if (call->kind == NodeKind::kNewExpr) {
      int cls = ClassOfBinding(UseBinding(callee));
      if (cls >= 0) {
        if (instance_classes_.Insert(call_ast, cls)) {
          SetsGrew(call_ast);
          changed = true;
        }
        const ClassScopeInfo& info = resolved_.classes[static_cast<size_t>(cls)];
        auto ctor = info.methods.find("constructor");
        if (ctor != info.methods.end()) {
          changed |= ConnectCall(call, resolved_.functions[static_cast<size_t>(ctor->second)],
                                 call_ast);
        }
        resolved_user_fn = true;
      }
    }
    if (receiver_node >= 0 && property != kAtomEmpty) {
      for (int ci : instance_classes_[receiver_node]) {
        const ClassScopeInfo& info = resolved_.classes[static_cast<size_t>(ci)];
        auto method = info.methods.find(property_name);  // own methods only
        if (method != info.methods.end()) {
          changed |= ConnectCall(call, resolved_.functions[static_cast<size_t>(method->second)],
                                 receiver_node);
          resolved_user_fn = true;
        }
      }
    }

    // Unresolved library call: conservatively let data flow through it
    // (e.g. JSON.stringify(tainted) is tainted). Event registrations are
    // control-flow, not dataflow, so they are excluded.
    if (!resolved_user_fn && !catalog_handled && !is_event && property != atoms.subscribe &&
        property != atoms.listen && property != atoms.push) {
      for (size_t i = 1; i < child_count; ++i) {
        changed |= AddEdge(call->children[i]->id, call_ast);
      }
      if (receiver_node >= 0) {
        changed |= AddEdge(receiver_node, call_ast);
      }
    }
    // `.push(x)` mutates the receiver container.
    if (property == atoms.push) {
      int root = RootBindingOfTarget(callee->children[0]);
      for (size_t i = 1; i < child_count; ++i) {
        changed |= AddEdge(call->children[i]->id, root >= 0 ? root : receiver_node);
      }
    }
    return changed;
  }

  // Index of the class a binding declares (the last, if redeclared), or -1.
  int ClassOfBinding(int binding) const {
    if (binding < 0) {
      return -1;
    }
    for (size_t ci = resolved_.classes.size(); ci-- > 0;) {
      if (resolved_.DeclBinding(resolved_.classes[ci].ast_id) == binding) {
        return static_cast<int>(ci);
      }
    }
    return -1;
  }

  // Adds arg→param, return→call, receiver→this edges for a resolved call.
  bool ConnectCall(const NodePtr& call, const FunctionScopeInfo& fn, int receiver_node) {
    bool changed = false;
    int arg_count = static_cast<int>(call->children.size()) - 1;
    for (int i = 0; i < arg_count; ++i) {
      const NodePtr& arg = call->children[static_cast<size_t>(i) + 1];
      if (arg->kind == NodeKind::kSpreadElement) {
        // Spread: conservatively feed every parameter.
        for (int param : fn.param_bindings) {
          changed |= AddEdge(arg->children[0]->id, param);
        }
        continue;
      }
      if (i < static_cast<int>(fn.param_bindings.size())) {
        changed |= AddEdge(arg->id, fn.param_bindings[static_cast<size_t>(i)]);
      } else if (!fn.param_bindings.empty() &&
                 fn.node->children[0]->children.back()->kind == NodeKind::kRestParam) {
        changed |= AddEdge(arg->id, fn.param_bindings.back());
      }
    }
    changed |= AddEdge(fn.return_binding, call->id);
    if (receiver_node >= 0 && fn.this_binding >= 0) {
      changed |= AddEdge(receiver_node, fn.this_binding);
    }
    return changed;
  }

  // --- taint propagation -----------------------------------------------------

  // Per source: a forward BFS (ascending adjacency, so the witness chains are
  // deterministic), then, when a sink is reached, a backward BFS from the
  // reached sink arguments. Both touch only the subgraph the source reaches.
  void RunTaint(AnalysisResult* result) {
    const size_t n = static_cast<size_t>(resolved_.total_nodes());
    std::set<std::pair<int, int>> reported;  // (source report ast, sink ast)
    std::vector<int> pred(n, -2);            // -2 = not reached
    std::vector<int> position(n);            // of a reached node in `reached`
    std::vector<int> reached;                // forward BFS order
    std::vector<int> in_offsets;
    std::vector<int> in_edges;
    std::vector<int> cursor;
    std::vector<char> back;
    std::vector<int> back_reached;
    for (const SourceSeed& seed : sources_) {
      reached.assign(1, seed.graph_node);
      pred[static_cast<size_t>(seed.graph_node)] = -1;
      position[static_cast<size_t>(seed.graph_node)] = 0;
      for (size_t head = 0; head < reached.size(); ++head) {
        const int u = reached[head];
        for (int edge : out_[u]) {
          const int v = edge >> 1;
          if (pred[static_cast<size_t>(v)] == -2) {
            pred[static_cast<size_t>(v)] = u;
            position[static_cast<size_t>(v)] = static_cast<int>(reached.size());
            reached.push_back(v);
          }
        }
      }
      std::vector<int> reached_sink_args;
      for (const SinkSite& sink : sinks_) {
        for (int arg : sink.data_arg_nodes) {
          if (arg < 0 || pred[static_cast<size_t>(arg)] == -2) {
            continue;
          }
          reached_sink_args.push_back(arg);
          if (reported.insert({seed.report_ast, sink.call_ast}).second) {
            DataflowPath path;
            path.source_ast = seed.report_ast;
            path.sink_ast = sink.call_ast;
            path.source_description = seed.description;
            path.sink_description = sink.description;
            if (seed.report_ast >= 0 && seed.report_ast < resolved_.ast_count) {
              path.source_loc = Ast(seed.report_ast)->loc;
            }
            path.sink_loc = Ast(sink.call_ast)->loc;
            // Witness chain: predecessor walk from the sink argument.
            for (int node = arg; node >= 0; node = pred[static_cast<size_t>(node)]) {
              if (node < resolved_.ast_count) {
                path.via_ast_nodes.push_back(node);
              }
            }
            std::reverse(path.via_ast_nodes.begin(), path.via_ast_nodes.end());
            path.via_ast_nodes.push_back(sink.call_ast);
            result->paths.push_back(std::move(path));
          }
        }
      }
      if (!reached_sink_args.empty()) {
        // Sensitive node set: forward-reachable ∩ backward-reachable-from-
        // sinks. The reached subgraph is closed under out-edges, so its
        // reverse edges (CSR over BFS positions) are all the backward search
        // needs.
        const size_t m = reached.size();
        in_offsets.assign(m + 1, 0);
        for (int u : reached) {
          for (int edge : out_[u]) {
            ++in_offsets[static_cast<size_t>(position[static_cast<size_t>(edge >> 1)]) + 1];
          }
        }
        for (size_t i = 0; i < m; ++i) {
          in_offsets[i + 1] += in_offsets[i];
        }
        in_edges.resize(static_cast<size_t>(in_offsets[m]));
        cursor.assign(in_offsets.begin(), in_offsets.end() - 1);
        for (size_t i = 0; i < m; ++i) {
          for (int edge : out_[reached[i]]) {
            const size_t v = static_cast<size_t>(position[static_cast<size_t>(edge >> 1)]);
            in_edges[static_cast<size_t>(cursor[v]++)] = static_cast<int>(i);
          }
        }
        back.assign(m, 0);
        back_reached.clear();
        for (int arg : reached_sink_args) {
          const int p = position[static_cast<size_t>(arg)];
          if (!back[static_cast<size_t>(p)]) {
            back[static_cast<size_t>(p)] = 1;
            back_reached.push_back(p);
          }
        }
        for (size_t head = 0; head < back_reached.size(); ++head) {
          const size_t p = static_cast<size_t>(back_reached[head]);
          for (int k = in_offsets[p]; k < in_offsets[p + 1]; ++k) {
            const int q = in_edges[static_cast<size_t>(k)];
            if (!back[static_cast<size_t>(q)]) {
              back[static_cast<size_t>(q)] = 1;
              back_reached.push_back(q);
            }
          }
        }
        for (int p : back_reached) {
          const int node = reached[static_cast<size_t>(p)];
          if (node < resolved_.ast_count) {
            result->sensitive_ast_nodes.insert(node);
          }
        }
        if (seed.report_ast >= 0) {
          result->sensitive_ast_nodes.insert(seed.report_ast);
        }
      }
      for (int node : reached) {
        pred[static_cast<size_t>(node)] = -2;
      }
    }
    for (const DataflowPath& path : result->paths) {
      result->sensitive_ast_nodes.insert(path.sink_ast);
    }
  }

  static inline const std::string kNoName;

  ResolvedProgram resolved_;
  const Catalog& catalog_;
  NodeLists out_;  // v * 2 + no_tag, ascending
  int edge_count_ = 0;
  NodeLists funcs_;             // function indices
  NodeLists instance_classes_;  // class indices
  NodeLists tags_;              // interned tag ids
  std::vector<char> queued_;    // on worklist_
  std::vector<int> worklist_;   // nodes PropagateSets starts from
  std::unordered_map<std::string, int> tag_ids_;
  std::vector<std::string> tag_names_;
  std::unordered_map<uint64_t, RuleMatch> rule_cache_;
  std::vector<int> call_sites_;     // AST ids, children before parents
  std::vector<char> site_dirty_;    // by index into call_sites_
  std::vector<int> reader_offsets_;  // by AST id, into readers_
  std::vector<int> readers_;         // call_sites_ indices
  std::vector<SourceSeed> sources_;
  std::vector<SinkSite> sinks_;
};

}  // namespace

Result<AnalysisResult> AnalyzeProgram(const Program& program, const Catalog& catalog) {
  const AnalysisMetrics& metrics = AnalysisMetrics::Get();
  metrics.runs->Increment();
  // Scope resolution runs in the Analyzer constructor; time it separately
  // from the fixpoint + taint phases (instrumented inside Run()).
  Stopwatch scope_watch;
  Analyzer analyzer(program, catalog);
  metrics.scope_seconds->Observe(scope_watch.ElapsedSeconds());
  return analyzer.Run(metrics);
}

Result<AnalysisResult> AnalyzeProgram(const Program& program) {
  return AnalyzeProgram(program, DefaultCatalog());
}

}  // namespace turnstile
