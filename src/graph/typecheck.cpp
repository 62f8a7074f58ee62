#include "graph/typecheck.hpp"

#include <cstdint>
#include <tuple>
#include <vector>

namespace graphiti {

WireType
WireType::pairOf(WireType a, WireType b)
{
    WireType t;
    t.kind = Kind::pair;
    t.first = std::make_shared<WireType>(std::move(a));
    t.second = std::make_shared<WireType>(std::move(b));
    return t;
}

std::string
WireType::toString() const
{
    switch (kind) {
      case Kind::unknown:
        return "?";
      case Kind::control:
        return "ctrl";
      case Kind::boolean:
        return "bool";
      case Kind::integer:
        return "int";
      case Kind::floating:
        return "float";
      case Kind::pair:
        return "(" + first->toString() + ", " + second->toString() + ")";
    }
    return "?";
}

namespace {

/** Inference term (union-find over type terms), an arena index. */
using Term = std::uint32_t;
constexpr Term kNone = ~Term{0};

struct TNode
{
    enum class K { var, control, boolean, integer, floating, pair };

    K k = K::var;
    Term parent = kNone;  // union-find link (vars only)
    Term a = kNone;       // pair components
    Term b = kNone;
};

class Unifier
{
  public:
    void
    reserve(std::size_t terms)
    {
        arena_.reserve(terms);
    }

    Term
    fresh(TNode::K k = TNode::K::var)
    {
        arena_.push_back(TNode{k});
        return static_cast<Term>(arena_.size() - 1);
    }

    Term
    pair(Term a, Term b)
    {
        Term p = fresh(TNode::K::pair);
        arena_[p].a = a;
        arena_[p].b = b;
        return p;
    }

    Term
    find(Term t) const
    {
        while (arena_[t].parent != kNone)
            t = arena_[t].parent;
        return t;
    }

    bool
    occurs(Term var, Term in) const
    {
        in = find(in);
        if (in == var)
            return true;
        if (arena_[in].k == TNode::K::pair)
            return occurs(var, arena_[in].a) || occurs(var, arena_[in].b);
        return false;
    }

    /** Unify two type terms; on failure, returns a description. */
    std::optional<std::string>
    unify(Term x, Term y)
    {
        x = find(x);
        y = find(y);
        if (x == y)
            return std::nullopt;
        if (arena_[x].k == TNode::K::var) {
            if (occurs(x, y))
                return std::string("cyclic type");
            arena_[x].parent = y;
            return std::nullopt;
        }
        if (arena_[y].k == TNode::K::var)
            return unify(y, x);
        if (arena_[x].k != arena_[y].k)
            return describe(x) + " vs " + describe(y);
        if (arena_[x].k == TNode::K::pair) {
            std::optional<std::string> left =
                unify(arena_[x].a, arena_[y].a);
            if (left)
                return left;
            return unify(arena_[x].b, arena_[y].b);
        }
        return std::nullopt;
    }

    std::string
    describe(Term t) const
    {
        const TNode& n = arena_[find(t)];
        switch (n.k) {
          case TNode::K::var:
            return "?";
          case TNode::K::control:
            return "ctrl";
          case TNode::K::boolean:
            return "bool";
          case TNode::K::integer:
            return "int";
          case TNode::K::floating:
            return "float";
          case TNode::K::pair:
            return "(" + describe(n.a) + ", " + describe(n.b) + ")";
        }
        return "?";
    }

    WireType
    resolve(Term t) const
    {
        const TNode& n = arena_[find(t)];
        switch (n.k) {
          case TNode::K::var:
            return WireType::unknown();
          case TNode::K::control:
            return WireType::control();
          case TNode::K::boolean:
            return WireType::boolean();
          case TNode::K::integer:
            return WireType::integer();
          case TNode::K::floating:
            return WireType::floating();
          case TNode::K::pair:
            return WireType::pairOf(resolve(n.a), resolve(n.b));
        }
        return WireType::unknown();
    }

  private:
    std::vector<TNode> arena_;
};

bool
intArith(const std::string& op)
{
    return op == "add" || op == "sub" || op == "mul" || op == "div" ||
           op == "mod" || op == "shl" || op == "shr" || op == "and" ||
           op == "or" || op == "xor" || op == "neg" || op == "abs";
}

bool
intCompare(const std::string& op)
{
    return op == "lt" || op == "le" || op == "gt" || op == "ge";
}

bool
floatArith(const std::string& op)
{
    return op == "fadd" || op == "fsub" || op == "fmul" ||
           op == "fdiv" || op == "fneg";
}

/**
 * Wire-type inference over one graph: a term per port, the component
 * rules, then one equation per edge. Ports are numbered densely per
 * node (signature inputs, then outputs); a port name outside the
 * signature gets its own term on first use.
 */
class Inference
{
  public:
    explicit Inference(const GraphIndex& index) : index_(index)
    {
        const std::vector<NodeDecl>& nodes = index.graph.nodes();
        base_.resize(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            base_[i] = next_;
            if (index.sig(i).ok()) {
                const Signature& sig = index.sig(i).value();
                next_ += static_cast<Term>(sig.inputs.size() +
                                           sig.outputs.size());
            }
        }
        // Port terms, plus room for the constants and pairs the rules
        // add.
        u_.reserve(2 * static_cast<std::size_t>(next_) + nodes.size());
        for (Term t = 0; t < next_; ++t)
            u_.fresh();
    }

    /**
     * checkWellTyped's rules and order: node rules in node order (a
     * node without a signature fails there), then edges in order.
     */
    std::optional<Error>
    run()
    {
        const std::vector<NodeDecl>& nodes = index_.graph.nodes();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const Result<Signature>& sig = index_.sig(i);
            if (!sig.ok())
                return sig.error().context("checkWellTyped: " +
                                           nodes[i].name);
            std::optional<std::string> conflict = nodeRules(i);
            if (conflict)
                return Error("type conflict at " + nodes[i].name + ": " +
                             *conflict);
        }
        // Connections: both endpoints carry one type (the section 6.3
        // well-typedness condition).
        for (const Edge& e : index_.graph.edges()) {
            std::optional<std::string> conflict =
                u_.unify(port(node(e.src.inst), e.src.port),
                         port(node(e.dst.inst), e.dst.port));
            if (conflict)
                return Error("type conflict on wire " + e.src.toString() +
                             " -> " + e.dst.toString() + ": " + *conflict);
        }
        return std::nullopt;
    }

    /** Inferred type of every output port (after a successful run). */
    TypeReport
    report() const
    {
        TypeReport report;
        const std::vector<NodeDecl>& nodes = index_.graph.nodes();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const Signature& sig = index_.sig(i).value();
            for (std::size_t k = 0; k < sig.outputs.size(); ++k)
                report.wire_types[PortRef{nodes[i].name, sig.outputs[k]}] =
                    u_.resolve(base_[i] + static_cast<Term>(
                                              sig.inputs.size() + k));
        }
        return report;
    }

  private:
    std::size_t
    node(const std::string& name) const
    {
        return static_cast<std::size_t>(index_.find(name));
    }

    /** The term of port @p name of node @p i. */
    Term
    port(std::size_t i, std::string_view name)
    {
        const Signature& sig = index_.sig(i).value();
        for (std::size_t k = 0; k < sig.inputs.size(); ++k)
            if (sig.inputs[k] == name)
                return base_[i] + static_cast<Term>(k);
        for (std::size_t k = 0; k < sig.outputs.size(); ++k)
            if (sig.outputs[k] == name)
                return base_[i] +
                       static_cast<Term>(sig.inputs.size() + k);
        for (const auto& [at, port_name, term] : extra_)
            if (at == i && port_name == name)
                return term;
        Term t = u_.fresh();
        extra_.emplace_back(i, std::string(name), t);
        return t;
    }

    std::optional<std::string>
    nodeRules(std::size_t i)
    {
        const NodeDecl& node = index_.graph.nodes()[i];
        const Signature& sig = index_.sig(i).value();
        const std::string& type = node.type;
        std::vector<std::pair<Term, Term>>& eqs = eqs_;
        eqs.clear();
        auto p = [&](std::string_view name) { return port(i, name); };

        if (type == "fork") {
            for (const std::string& out : sig.outputs)
                eqs.emplace_back(p("in0"), p(out));
        } else if (type == "join") {
            if (!sig.inputs.empty()) {
                Term t = p(sig.inputs.back());
                for (std::size_t k = sig.inputs.size() - 1; k-- > 0;)
                    t = u_.pair(p(sig.inputs[k]), t);
                eqs.emplace_back(p("out0"), t);
            }
        } else if (type == "split") {
            eqs.emplace_back(p("in0"), u_.pair(p("out0"), p("out1")));
        } else if (type == "branch") {
            eqs.emplace_back(p("in1"), u_.fresh(TNode::K::boolean));
            eqs.emplace_back(p("in0"), p("out0"));
            eqs.emplace_back(p("in0"), p("out1"));
        } else if (type == "mux") {
            eqs.emplace_back(p("in0"), u_.fresh(TNode::K::boolean));
            eqs.emplace_back(p("in1"), p("out0"));
            eqs.emplace_back(p("in2"), p("out0"));
        } else if (type == "merge") {
            eqs.emplace_back(p("in0"), p("out0"));
            eqs.emplace_back(p("in1"), p("out0"));
        } else if (type == "init") {
            eqs.emplace_back(p("in0"), u_.fresh(TNode::K::boolean));
            eqs.emplace_back(p("out0"), u_.fresh(TNode::K::boolean));
        } else if (type == "buffer" || type == "tagger") {
            eqs.emplace_back(p("in0"), p("out0"));
            if (type == "tagger")
                eqs.emplace_back(p("in1"), p("out1"));
        } else if (type == "constant") {
            std::string value = attrStr(node.attrs, "value", "0");
            TNode::K k = TNode::K::integer;
            if (value == "true" || value == "false")
                k = TNode::K::boolean;
            else if (value.find('.') != std::string::npos)
                k = TNode::K::floating;
            else if (value == "unit" || value.empty())
                k = TNode::K::control;
            eqs.emplace_back(p("out0"), u_.fresh(k));
        } else if (type == "load") {
            eqs.emplace_back(p("in0"), u_.fresh(TNode::K::integer));
            eqs.emplace_back(p("out0"), u_.fresh(TNode::K::floating));
        } else if (type == "store") {
            eqs.emplace_back(p("in0"), u_.fresh(TNode::K::integer));
            eqs.emplace_back(p("out0"), u_.fresh(TNode::K::integer));
        } else if (type == "operator") {
            std::string op = attrStr(node.attrs, "op", "");
            auto all_inputs = [&](TNode::K k) {
                for (const std::string& in : sig.inputs)
                    eqs.emplace_back(p(in), u_.fresh(k));
            };
            if (intArith(op)) {
                all_inputs(TNode::K::integer);
                eqs.emplace_back(p("out0"), u_.fresh(TNode::K::integer));
            } else if (intCompare(op)) {
                all_inputs(TNode::K::integer);
                eqs.emplace_back(p("out0"), u_.fresh(TNode::K::boolean));
            } else if (floatArith(op)) {
                all_inputs(TNode::K::floating);
                eqs.emplace_back(p("out0"),
                                 u_.fresh(TNode::K::floating));
            } else if (op == "flt" || op == "fge") {
                all_inputs(TNode::K::floating);
                eqs.emplace_back(p("out0"), u_.fresh(TNode::K::boolean));
            } else if (op == "eq" || op == "ne") {
                eqs.emplace_back(p("in0"), p("in1"));
                eqs.emplace_back(p("out0"), u_.fresh(TNode::K::boolean));
            } else if (op == "not") {
                eqs.emplace_back(p("in0"), u_.fresh(TNode::K::boolean));
                eqs.emplace_back(p("out0"), u_.fresh(TNode::K::boolean));
            } else if (op == "select") {
                eqs.emplace_back(p("in0"), u_.fresh(TNode::K::boolean));
                eqs.emplace_back(p("in1"), p("out0"));
                eqs.emplace_back(p("in2"), p("out0"));
            } else if (op == "id" || op == "trunc" || op == "zext" ||
                       op == "sext") {
                eqs.emplace_back(p("in0"), p("out0"));
            }
        }
        // pure / sink / source: no constraints.

        for (auto& [x, y] : eqs) {
            std::optional<std::string> conflict = u_.unify(x, y);
            if (conflict)
                return conflict;
        }
        return std::nullopt;
    }

    const GraphIndex& index_;
    Unifier u_;
    std::vector<Term> base_;  ///< first port term of each node
    Term next_ = 0;
    std::vector<std::tuple<std::size_t, std::string, Term>> extra_;
    std::vector<std::pair<Term, Term>> eqs_;  ///< one node's equations
};

}  // namespace

GraphIndex::GraphIndex(const ExprHigh& g) : graph(g)
{
    const std::vector<NodeDecl>& nodes = g.nodes();
    first.reserve(nodes.size());
    sig_of.reserve(nodes.size());
    std::vector<std::size_t> example;  // a node per distinct entry
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        first.emplace(nodes[i].name, i);
        std::size_t d = 0;
        while (d < example.size() &&
               (nodes[example[d]].type != nodes[i].type ||
                nodes[example[d]].attrs != nodes[i].attrs))
            ++d;
        if (d == example.size()) {
            example.push_back(i);
            distinct.push_back(signatureOf(nodes[i].type, nodes[i].attrs));
        }
        sig_of.push_back(d);
    }
}

std::ptrdiff_t
GraphIndex::find(std::string_view name) const
{
    auto it = first.find(name);
    return it == first.end() ? -1
                             : static_cast<std::ptrdiff_t>(it->second);
}

std::optional<std::string>
findTypeConflict(const GraphIndex& index)
{
    std::optional<Error> conflict = Inference(index).run();
    if (conflict)
        return conflict->message;
    return std::nullopt;
}

Result<TypeReport>
checkWellTyped(const ExprHigh& graph)
{
    Result<bool> valid = graph.validate();
    if (!valid.ok())
        return valid.error().context("checkWellTyped");
    GraphIndex index(graph);
    Inference inference(index);
    std::optional<Error> conflict = inference.run();
    if (conflict)
        return *conflict;
    return inference.report();
}

}  // namespace graphiti
