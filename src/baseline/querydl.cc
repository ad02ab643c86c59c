#include "src/baseline/querydl.h"

#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "src/analysis/scope.h"

namespace turnstile {

namespace {

// IR instruction (three-address form). The IR exists to mirror CodeQL's
// compile-to-relations pipeline; the taint relation is evaluated over slots
// (= AST value nodes + variable bindings) derived from it.
struct IrInstr {
  enum class Op {
    kConst,
    kLoadVar,
    kStoreVar,
    kBinOp,
    kPropRead,
    kPropWrite,
    kCall,
    kNew,
    kMakeFn,
    kMakeObj,
    kMakeArr,
    kReturn,
  };
  Op op;
  int ast = -1;
  int a = -1;
  int b = -1;
  std::string prop;
};

struct SourceSeed {
  int slot = -1;
  int report_ast = -1;
  std::string description;
};

struct SinkSite {
  int call_ast = -1;
  std::vector<int> data_arg_slots;
  std::string description;
};

class QueryDl {
 public:
  QueryDl(const Program& program, const Catalog& catalog)
      : resolved_(ResolveScopes(program)), catalog_(catalog) {
    int n = resolved_.total_nodes();
    edges_.resize(static_cast<size_t>(n));
  }

  Result<QueryDlResult> Run() {
    LowerToIr(resolved_.program->root, -1);
    CollectBindingDecls();
    BuildEdges();
    // Syntactic (API-chain) rule evaluation to a fixpoint: callback-parameter
    // tags can enable further matches.
    for (int round = 0; round < 8; ++round) {
      if (!ScanCalls()) {
        break;
      }
    }
    QueryDlResult result;
    result.stats.ir_instructions = static_cast<int>(ir_.size());
    result.stats.flow_slots = resolved_.total_nodes();
    int edge_count = 0;
    for (const auto& out : edges_) {
      edge_count += static_cast<int>(out.size());
    }
    result.stats.flow_edges = edge_count;
    result.stats.sources_found = static_cast<int>(sources_.size());
    result.stats.sinks_found = static_cast<int>(sinks_.size());
    MaterializeClosure(&result.stats);
    EvaluateQueries(&result);
    return result;
  }

 private:
  const NodePtr& Ast(int id) const { return resolved_.ast_by_id[static_cast<size_t>(id)]; }

  int UseBinding(const NodePtr& node) const {
    return resolved_.UseBinding(node->id);
  }

  void AddEdge(int u, int v) {
    if (u >= 0 && v >= 0 && u != v) {
      edges_[static_cast<size_t>(u)].insert(v);
    }
  }

  // --- IR lowering -------------------------------------------------------------

  // Produces a linear three-address IR. Each expression's "temp" is its AST
  // node id (dense and unique), which doubles as its flow slot.
  void LowerToIr(const NodePtr& node, int fn_index) {
    int child_fn = fn_index;
    if (node->IsFunctionLike()) {
      int fn = resolved_.FunctionIndex(node->id);
      if (fn >= 0) {
        child_fn = fn;
      }
      ir_.push_back({IrInstr::Op::kMakeFn, node->id, -1, -1, ""});
    }
    for (const NodePtr& child : node->children) {
      LowerToIr(child, child_fn);
    }
    switch (node->kind) {
      case NodeKind::kNumberLit:
      case NodeKind::kStringLit:
      case NodeKind::kBoolLit:
        ir_.push_back({IrInstr::Op::kConst, node->id, -1, -1, ""});
        break;
      case NodeKind::kIdentifier:
        ir_.push_back({IrInstr::Op::kLoadVar, node->id, UseBinding(node), -1, node->str});
        break;
      case NodeKind::kBinaryExpr:
      case NodeKind::kLogicalExpr:
        ir_.push_back({IrInstr::Op::kBinOp, node->id, node->children[0]->id,
                       node->children[1]->id, node->str});
        break;
      case NodeKind::kMemberExpr:
        ir_.push_back({IrInstr::Op::kPropRead, node->id, node->children[0]->id, -1, node->str});
        break;
      case NodeKind::kAssignExpr:
        if (node->children[0]->kind == NodeKind::kIdentifier) {
          ir_.push_back({IrInstr::Op::kStoreVar, node->id, node->children[1]->id,
                         UseBinding(node->children[0]), node->children[0]->str});
        } else {
          ir_.push_back({IrInstr::Op::kPropWrite, node->id, node->children[1]->id,
                         node->children[0]->children[0]->id, node->children[0]->str});
        }
        break;
      case NodeKind::kCallExpr:
        ir_.push_back({IrInstr::Op::kCall, node->id, node->children[0]->id, -1, ""});
        call_sites_.push_back(node->id);
        break;
      case NodeKind::kNewExpr:
        ir_.push_back({IrInstr::Op::kNew, node->id, node->children[0]->id, -1, ""});
        call_sites_.push_back(node->id);
        break;
      case NodeKind::kObjectLit:
        ir_.push_back({IrInstr::Op::kMakeObj, node->id, -1, -1, ""});
        break;
      case NodeKind::kArrayLit:
        ir_.push_back({IrInstr::Op::kMakeArr, node->id, -1, -1, ""});
        break;
      case NodeKind::kReturnStmt:
        if (!node->children.empty() && fn_index >= 0) {
          ir_.push_back({IrInstr::Op::kReturn, node->id, node->children[0]->id, fn_index, ""});
        }
        break;
      default:
        break;
    }
  }

  // --- binding declaration info -------------------------------------------------

  struct BindingDecl {
    int init_ast = -1;        // initializer expression (declarator only)
    int store_count = 0;      // number of assignments/declarations
    int fn_index = -1;        // function literal/decl bound here
    int class_index = -1;     // `x = new C()` instance
    int object_literal = -1;  // `x = { ... }` ast id
    std::string tag;          // syntactic API-chain tag
  };

  void CollectBindingDecls() {
    ForEachNode(resolved_.program->root, [this](const NodePtr& node) {
      if (node->kind == NodeKind::kVarDecl) {
        for (const NodePtr& declarator : node->children) {
          int binding = resolved_.DeclBinding(declarator->id);
          if (binding < 0) {
            continue;
          }
          BindingDecl& decl = binding_decls_[binding];
          ++decl.store_count;
          if (!declarator->children.empty()) {
            decl.init_ast = declarator->children[0]->id;
          }
        }
      } else if (node->kind == NodeKind::kFunctionDecl) {
        int binding = resolved_.DeclBinding(node->id);
        int fn = resolved_.FunctionIndex(node->id);
        if (binding >= 0 && fn >= 0) {
          BindingDecl& decl = binding_decls_[binding];
          ++decl.store_count;
          decl.fn_index = fn;
        }
      } else if (node->kind == NodeKind::kAssignExpr &&
                 node->children[0]->kind == NodeKind::kIdentifier) {
        int binding = UseBinding(node->children[0]);
        if (binding >= 0) {
          ++binding_decls_[binding].store_count;
        }
      }
    });
    // Second pass: classify single-assignment initializers.
    for (auto& [binding, decl] : binding_decls_) {
      if (decl.init_ast < 0) {
        continue;
      }
      const NodePtr& init = Ast(decl.init_ast);
      if (init->IsFunctionLike()) {
        int fn = resolved_.FunctionIndex(init->id);
        if (fn >= 0) {
          decl.fn_index = fn;
        }
      } else if (init->kind == NodeKind::kObjectLit) {
        decl.object_literal = init->id;
      } else if (init->kind == NodeKind::kNewExpr) {
        int class_binding = UseBinding(init->children[0]);
        auto cls = FindClassOfBinding(class_binding);
        if (cls >= 0) {
          decl.class_index = cls;
        }
      }
      if (decl.store_count == 1) {
        decl.tag = TagOfExpr(Ast(decl.init_ast), /*depth=*/0);
      }
    }
  }

  int FindClassOfBinding(int binding) const {
    if (binding < 0) {
      return -1;
    }
    for (size_t ci = 0; ci < resolved_.classes.size(); ++ci) {
      if (resolved_.DeclBinding(resolved_.classes[ci].ast_id) == binding) {
        return static_cast<int>(ci);
      }
    }
    return -1;
  }

  // Syntactic API-chain typing: CodeQL-style getACall()/getAMemberCall()
  // chains. Only direct chains and single-assignment consts carry tags —
  // never function parameters or returns.
  std::string TagOfExpr(const NodePtr& node, int depth) {
    if (depth > 12) {
      return "";
    }
    switch (node->kind) {
      case NodeKind::kIdentifier: {
        int binding = UseBinding(node);
        auto it = binding_decls_.find(binding);
        if (it != binding_decls_.end() && it->second.store_count == 1) {
          return it->second.tag;
        }
        auto pt = param_tags_.find(binding);
        if (pt != param_tags_.end()) {
          return pt->second;  // structural callback-parameter tag
        }
        return "";
      }
      case NodeKind::kCallExpr:
      case NodeKind::kNewExpr: {
        const NodePtr& callee = node->children[0];
        if (callee->kind == NodeKind::kIdentifier && callee->str == "require" &&
            UseBinding(callee) < 0 && node->children.size() > 1 &&
            node->children[1]->kind == NodeKind::kStringLit) {
          return "module:" + node->children[1]->str;
        }
        if (callee->kind == NodeKind::kMemberExpr) {
          std::string recv_tag = TagOfExpr(callee->children[0], depth + 1);
          if (!recv_tag.empty()) {
            const CallTypeRule* rule = catalog_.FindCallType(recv_tag, callee->str);
            if (rule != nullptr) {
              return rule->result_tag;
            }
            // `.on(...)` returns the receiver in fluent APIs.
            if (callee->str == "on" || callee->str == "once") {
              return recv_tag;
            }
          }
          return "";
        }
        if (callee->kind == NodeKind::kIdentifier) {
          std::string callee_tag = TagOfExpr(callee, depth + 1);
          if (!callee_tag.empty()) {
            const CallTypeRule* rule = catalog_.FindCallType(callee_tag, "");
            if (rule != nullptr) {
              return rule->result_tag;
            }
          }
        }
        return "";
      }
      default:
        return "";
    }
  }

  // --- flow edges -----------------------------------------------------------------

  void BuildEdges() {
    for (const IrInstr& instr : ir_) {
      switch (instr.op) {
        case IrInstr::Op::kLoadVar:
          AddEdge(instr.a, instr.ast);
          break;
        case IrInstr::Op::kStoreVar:
          AddEdge(instr.a, instr.b);
          AddEdge(instr.a, instr.ast);
          break;
        case IrInstr::Op::kBinOp:
          AddEdge(instr.a, instr.ast);
          AddEdge(instr.b, instr.ast);
          break;
        case IrInstr::Op::kPropRead:
          AddEdge(instr.a, instr.ast);
          break;
        case IrInstr::Op::kPropWrite: {
          AddEdge(instr.a, instr.ast);
          // Taint the base variable when the write target is a direct
          // identifier chain (obj.a.b = v).
          NodePtr base = Ast(instr.b);
          while (base->kind == NodeKind::kMemberExpr || base->kind == NodeKind::kIndexExpr) {
            base = base->children[0];
          }
          if (base->kind == NodeKind::kIdentifier || base->kind == NodeKind::kThisExpr) {
            AddEdge(instr.a, UseBinding(base));
          }
          break;
        }
        case IrInstr::Op::kReturn:
          AddEdge(instr.a,
                  resolved_.functions[static_cast<size_t>(instr.b)].return_binding);
          break;
        default:
          break;
      }
    }
    // Remaining structural edges taken straight from the AST.
    ForEachNode(resolved_.program->root, [this](const NodePtr& node) {
      switch (node->kind) {
        case NodeKind::kVarDecl:
          for (const NodePtr& declarator : node->children) {
            int binding = resolved_.DeclBinding(declarator->id);
            if (binding >= 0 && !declarator->children.empty()) {
              AddEdge(declarator->children[0]->id, binding);
            }
          }
          break;
        case NodeKind::kArrayLit:
          for (const NodePtr& element : node->children) {
            AddEdge(element->id, node->id);
          }
          break;
        case NodeKind::kObjectLit:
          for (const NodePtr& prop : node->children) {
            const NodePtr& value = prop->num != 0 ? prop->children[1] : prop->children[0];
            AddEdge(value->id, node->id);
          }
          break;
        case NodeKind::kSpreadElement:
        case NodeKind::kAwaitExpr:
        case NodeKind::kUnaryExpr:
          AddEdge(node->children[0]->id, node->id);
          break;
        case NodeKind::kConditionalExpr:
          AddEdge(node->children[1]->id, node->id);
          AddEdge(node->children[2]->id, node->id);
          break;
        case NodeKind::kForOfStmt: {
          int binding = resolved_.DeclBinding(node->children[0]->id);
          if (binding >= 0) {
            AddEdge(node->children[1]->id, binding);
          }
          break;
        }
        case NodeKind::kIndexExpr:
          AddEdge(node->children[0]->id, node->id);
          break;
        case NodeKind::kArrowFunction: {
          int fn = resolved_.FunctionIndex(node->id);
          if (fn >= 0 && node->children[1]->kind != NodeKind::kBlockStmt) {
            AddEdge(node->children[1]->id,
                    resolved_.functions[static_cast<size_t>(fn)].return_binding);
          }
          break;
        }
        default:
          break;
      }
    });
  }

  // --- call resolution + catalog (syntactic only) -----------------------------------

  // Resolves a callee to a function index using only direct syntactic
  // evidence. Returns -1 when unresolved.
  int ResolveDirectCallee(const NodePtr& callee) {
    if (callee->kind == NodeKind::kIdentifier) {
      auto it = binding_decls_.find(UseBinding(callee));
      if (it != binding_decls_.end() && it->second.fn_index >= 0 &&
          it->second.store_count == 1) {
        return it->second.fn_index;
      }
      return -1;
    }
    if (callee->kind == NodeKind::kFunctionExpr || callee->kind == NodeKind::kArrowFunction) {
      return resolved_.FunctionIndex(callee->id);
    }
    if (callee->kind == NodeKind::kMemberExpr &&
        callee->children[0]->kind == NodeKind::kIdentifier) {
      auto it = binding_decls_.find(UseBinding(callee->children[0]));
      if (it == binding_decls_.end() || it->second.store_count != 1) {
        return -1;
      }
      // Object-literal method.
      if (it->second.object_literal >= 0) {
        const NodePtr& literal = Ast(it->second.object_literal);
        for (const NodePtr& prop : literal->children) {
          if (prop->num == 0 && prop->str == callee->str &&
              prop->children[0]->IsFunctionLike()) {
            int fn = resolved_.FunctionIndex(prop->children[0]->id);
            if (fn >= 0) {
              return fn;
            }
          }
        }
      }
      // Class instance method — resolved through the FULL inheritance chain
      // (QueryDL's prototype-chain advantage over Turnstile).
      if (it->second.class_index >= 0) {
        int ci = it->second.class_index;
        while (ci >= 0) {
          const ClassScopeInfo& cls = resolved_.classes[static_cast<size_t>(ci)];
          auto method = cls.methods.find(callee->str);
          if (method != cls.methods.end()) {
            return method->second;
          }
          auto super = resolved_.class_by_name.find(cls.super_name);
          ci = super == resolved_.class_by_name.end() ? -1 : super->second;
        }
      }
    }
    return -1;
  }

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

  // The callback function literal at an argument position, or -1. QueryDL
  // accepts function literals and single-assignment function consts.
  int DirectFunctionArg(const NodePtr& arg) {
    if (arg->IsFunctionLike()) {
      return resolved_.FunctionIndex(arg->id);
    }
    if (arg->kind == NodeKind::kIdentifier) {
      auto it = binding_decls_.find(UseBinding(arg));
      if (it != binding_decls_.end() && it->second.store_count == 1) {
        return it->second.fn_index;
      }
    }
    return -1;
  }

  bool AddSourceSeed(int slot, int report_ast, const std::string& description) {
    for (const SourceSeed& seed : sources_) {
      if (seed.slot == slot) {
        return false;
      }
    }
    sources_.push_back({slot, report_ast, description});
    return true;
  }

  bool ScanCalls() {
    bool changed = false;
    for (int call_ast : call_sites_) {
      const NodePtr& call = Ast(call_ast);
      const NodePtr& callee = call->children[0];

      // Direct call resolution: arg→param, return→call.
      int fn_index = ResolveDirectCallee(callee);
      if (fn_index >= 0) {
        const FunctionScopeInfo& fn = resolved_.functions[static_cast<size_t>(fn_index)];
        int arg_count = static_cast<int>(call->children.size()) - 1;
        for (int i = 0; i < arg_count && i < static_cast<int>(fn.param_bindings.size());
             ++i) {
          size_t before = edges_[static_cast<size_t>(call->children[static_cast<size_t>(i) + 1]->id)].size();
          AddEdge(call->children[static_cast<size_t>(i) + 1]->id,
                  fn.param_bindings[static_cast<size_t>(i)]);
          changed |= edges_[static_cast<size_t>(call->children[static_cast<size_t>(i) + 1]->id)].size() != before;
        }
        AddEdge(fn.return_binding, call_ast);
        // Receiver feeds `this` for class-method calls.
        if (callee->kind == NodeKind::kMemberExpr && fn.this_binding >= 0) {
          AddEdge(callee->children[0]->id, fn.this_binding);
        }
      } else if (callee->kind != NodeKind::kIndexExpr) {
        // Unresolved call: generic taint-through-library step. Dynamic
        // bracket calls are NOT modeled (CodeQL limitation per §6.1).
        std::string prop = callee->kind == NodeKind::kMemberExpr ? callee->str : "";
        if (prop != "on" && prop != "once" && prop != "subscribe" && prop != "listen") {
          for (size_t i = 1; i < call->children.size(); ++i) {
            AddEdge(call->children[i]->id, call_ast);
          }
          if (callee->kind == NodeKind::kMemberExpr) {
            AddEdge(callee->children[0]->id, call_ast);
          }
        }
      }

      // Catalog rules via syntactic tags.
      if (callee->kind != NodeKind::kMemberExpr) {
        continue;
      }
      std::string property = callee->str;
      std::string recv_tag = TagOfExpr(callee->children[0], 0);
      if (recv_tag.empty()) {
        continue;
      }
      std::string event;
      if ((property == "on" || property == "once") && call->children.size() > 1 &&
          call->children[1]->kind == NodeKind::kStringLit) {
        event = call->children[1]->str;
      }
      if (const CallbackSourceRule* rule =
              catalog_.FindCallbackSource(recv_tag, property, event)) {
        int cb_index = CallbackArgIndex(call, rule->callback_arg);
        if (cb_index >= 0) {
          int cb_fn = DirectFunctionArg(call->children[static_cast<size_t>(cb_index) + 1]);
          if (cb_fn >= 0) {
            const FunctionScopeInfo& fn = resolved_.functions[static_cast<size_t>(cb_fn)];
            if (rule->taint_param >= 0 &&
                rule->taint_param < static_cast<int>(fn.param_bindings.size())) {
              changed |= AddSourceSeed(
                  fn.param_bindings[static_cast<size_t>(rule->taint_param)], call_ast,
                  rule->description);
            }
            if (rule->tag_param >= 0 &&
                rule->tag_param < static_cast<int>(fn.param_bindings.size())) {
              int binding = fn.param_bindings[static_cast<size_t>(rule->tag_param)];
              if (param_tags_.find(binding) == param_tags_.end()) {
                param_tags_[binding] = rule->param_tag;
                changed = true;
              }
            }
          }
        }
      }
      if (const ReturnSourceRule* rule = catalog_.FindReturnSource(recv_tag, property)) {
        changed |= AddSourceSeed(call_ast, call_ast, rule->description);
      }
      if (const SinkRule* rule = catalog_.FindSink(recv_tag, property)) {
        bool known = false;
        for (const SinkSite& sink : sinks_) {
          if (sink.call_ast == call_ast) {
            known = true;
          }
        }
        if (!known) {
          SinkSite sink;
          sink.call_ast = call_ast;
          sink.description = rule->description;
          if (rule->data_args.size() == 1 && rule->data_args[0] == -1) {
            for (size_t i = 1; i < call->children.size(); ++i) {
              sink.data_arg_slots.push_back(call->children[i]->id);
            }
          } else {
            for (int index : rule->data_args) {
              if (index >= 0 && index + 1 < static_cast<int>(call->children.size())) {
                sink.data_arg_slots.push_back(
                    call->children[static_cast<size_t>(index) + 1]->id);
              }
            }
          }
          sinks_.push_back(std::move(sink));
          changed = true;
        }
      }
    }
    return changed;
  }

  // --- relation materialization (the Datalog-engine cost model) ---------------------

  void MaterializeClosure(QueryDlStats* stats) {
    const int n = resolved_.total_nodes();
    const int words = (n + 63) / 64;
    closure_.assign(static_cast<size_t>(n) * static_cast<size_t>(words), 0);
    auto row = [&](int i) { return closure_.data() + static_cast<size_t>(i) * words; };
    auto set_bit = [&](int i, int j) {
      row(i)[j / 64] |= (1ull << (j % 64));
    };
    for (int u = 0; u < n; ++u) {
      set_bit(u, u);
      for (int v : edges_[static_cast<size_t>(u)]) {
        set_bit(u, v);
      }
    }
    // Semi-naive fixpoint: row(u) |= row(v) for every edge u->v, repeated
    // until stable. This materializes the full flows-to relation, which is
    // what makes QueryDL an order of magnitude slower than Turnstile.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int u = 0; u < n; ++u) {
        uint64_t* ru = row(u);
        for (int v : edges_[static_cast<size_t>(u)]) {
          const uint64_t* rv = row(v);
          for (int w = 0; w < words; ++w) {
            uint64_t merged = ru[w] | rv[w];
            stats->closure_word_ops += 1;
            if (merged != ru[w]) {
              ru[w] = merged;
              changed = true;
            }
          }
        }
      }
    }
    closure_words_ = words;
  }

  bool Reaches(int u, int v) const {
    const uint64_t* ru = closure_.data() + static_cast<size_t>(u) * closure_words_;
    return (ru[v / 64] >> (v % 64)) & 1ull;
  }

  void EvaluateQueries(QueryDlResult* result) {
    std::set<std::pair<int, int>> reported;
    for (const SourceSeed& seed : sources_) {
      for (const SinkSite& sink : sinks_) {
        for (int arg : sink.data_arg_slots) {
          if (arg < 0 || !Reaches(seed.slot, arg)) {
            continue;
          }
          if (!reported.insert({seed.report_ast, sink.call_ast}).second) {
            continue;
          }
          DataflowPath path;
          path.source_ast = seed.report_ast;
          path.sink_ast = sink.call_ast;
          path.source_description = seed.description;
          path.sink_description = sink.description;
          path.source_loc = Ast(seed.report_ast)->loc;
          path.sink_loc = Ast(sink.call_ast)->loc;
          // Witness chain via BFS (only for reported pairs).
          std::vector<int> pred(static_cast<size_t>(resolved_.total_nodes()), -2);
          std::deque<int> frontier = {seed.slot};
          pred[static_cast<size_t>(seed.slot)] = -1;
          while (!frontier.empty()) {
            int u = frontier.front();
            frontier.pop_front();
            if (u == arg) {
              break;
            }
            for (int v : edges_[static_cast<size_t>(u)]) {
              if (pred[static_cast<size_t>(v)] == -2) {
                pred[static_cast<size_t>(v)] = u;
                frontier.push_back(v);
              }
            }
          }
          std::vector<int> chain;
          for (int node = arg; node >= 0; node = pred[static_cast<size_t>(node)]) {
            if (node < resolved_.ast_count) {
              chain.push_back(node);
            }
          }
          path.via_ast_nodes.assign(chain.rbegin(), chain.rend());
          path.via_ast_nodes.push_back(sink.call_ast);
          result->paths.push_back(std::move(path));
        }
      }
    }
  }

  ResolvedProgram resolved_;
  const Catalog& catalog_;
  std::vector<IrInstr> ir_;
  std::vector<std::set<int>> edges_;
  std::vector<int> call_sites_;
  std::map<int, BindingDecl> binding_decls_;
  std::map<int, std::string> param_tags_;
  std::vector<SourceSeed> sources_;
  std::vector<SinkSite> sinks_;
  std::vector<uint64_t> closure_;
  int closure_words_ = 0;
};

}  // namespace

Result<QueryDlResult> QueryDlAnalyze(const Program& program, const Catalog& catalog) {
  return QueryDl(program, catalog).Run();
}

Result<QueryDlResult> QueryDlAnalyze(const Program& program) {
  return QueryDlAnalyze(program, DefaultCatalog());
}

}  // namespace turnstile
