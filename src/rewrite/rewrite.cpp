#include "rewrite/rewrite.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "graph/signatures.hpp"
#include "graph/typecheck.hpp"

namespace graphiti {

namespace {

/** Check port coverage: every signature port has an edge or io bind. */
Result<bool>
checkCoverage(const ExprHigh& g, const std::string& side)
{
    for (const NodeDecl& node : g.nodes()) {
        Result<Signature> sig = signatureOf(node.type, node.attrs);
        if (!sig.ok())
            return sig.error().context(side + " node " + node.name);
        for (const std::string& port : sig.value().inputs) {
            PortRef ref{node.name, port};
            bool covered = g.driverOf(ref).has_value();
            for (const auto& io : g.inputs())
                covered |= io && *io == ref;
            if (!covered)
                return err(side + " port uncovered: " + ref.toString());
        }
        for (const std::string& port : sig.value().outputs) {
            PortRef ref{node.name, port};
            bool covered = !g.consumersOf(ref).empty();
            for (const auto& io : g.outputs())
                covered |= io && *io == ref;
            if (!covered)
                return err(side + " port uncovered: " + ref.toString());
        }
    }
    return true;
}

std::set<std::size_t>
boundIndices(const std::vector<std::optional<PortRef>>& ios)
{
    std::set<std::size_t> out;
    for (std::size_t i = 0; i < ios.size(); ++i)
        if (ios[i])
            out.insert(i);
    return out;
}

bool
attrsMatch(const AttrMap& pattern, const AttrMap& concrete,
           std::map<std::string, std::string>& captures)
{
    for (const auto& [key, value] : pattern) {
        auto it = concrete.find(key);
        if (it == concrete.end())
            return false;
        if (!value.empty() && value[0] == '$') {
            auto [cap, inserted] = captures.emplace(value, it->second);
            if (!inserted && cap->second != it->second)
                return false;
        } else if (value != it->second) {
            return false;
        }
    }
    return true;
}

}  // namespace

Result<bool>
RewriteDef::validate() const
{
    Result<bool> lhs_ok = lhs.validate();
    if (!lhs_ok.ok())
        return lhs_ok.error().context(name + " lhs");
    Result<bool> coverage = checkCoverage(lhs, name + " lhs");
    if (!coverage.ok())
        return coverage;
    if (lhs.numNodes() == 0)
        return err(name + ": empty lhs");

    if (rhs.numNodes() == 0) {
        // Wire rewrite: passthroughs must pair existing boundary ports.
        if (passthrough.empty())
            return err(name + ": empty rhs needs passthrough wires");
        std::set<std::size_t> ins = boundIndices(lhs.inputs());
        std::set<std::size_t> outs = boundIndices(lhs.outputs());
        for (auto [in_io, out_io] : passthrough) {
            if (ins.count(in_io) == 0 || outs.count(out_io) == 0)
                return err(name + ": passthrough references unbound io");
        }
        return true;
    }

    Result<bool> rhs_ok = rhs.validate();
    if (!rhs_ok.ok())
        return rhs_ok.error().context(name + " rhs");
    coverage = checkCoverage(rhs, name + " rhs");
    if (!coverage.ok())
        return coverage;
    if (boundIndices(lhs.inputs()) != boundIndices(rhs.inputs()) ||
        boundIndices(lhs.outputs()) != boundIndices(rhs.outputs()))
        return err(name + ": lhs/rhs boundary indices differ");
    return true;
}

std::vector<std::string>
RewriteMatch::matchedNodes(const RewriteDef& def) const
{
    std::vector<std::string> out;
    for (const NodeDecl& pn : def.lhs.nodes())
        out.push_back(binding.at(pn.name));
    return out;
}

namespace {

/** Backtracking pattern matcher. */
class Matcher
{
  public:
    Matcher(const ExprHigh& graph, const RewriteDef& def)
        : graph_(graph), def_(def)
    {
    }

    std::vector<RewriteMatch>
    run(bool first_only)
    {
        first_only_ = first_only;
        RewriteMatch seed;
        assign(0, seed);
        return std::move(results_);
    }

  private:
    void
    assign(std::size_t idx, RewriteMatch& partial)
    {
        if (first_only_ && !results_.empty())
            return;
        if (idx == def_.lhs.nodes().size()) {
            if (verify(partial))
                results_.push_back(partial);
            return;
        }
        const NodeDecl& pn = def_.lhs.nodes()[idx];
        for (const NodeDecl& cn : graph_.nodes()) {
            if (cn.type != pn.type)
                continue;
            bool taken = false;
            for (const auto& [p, c] : partial.binding)
                taken |= c == cn.name;
            if (taken)
                continue;
            RewriteMatch attempt = partial;
            if (!attrsMatch(pn.attrs, cn.attrs, attempt.captures))
                continue;
            attempt.binding[pn.name] = cn.name;
            assign(idx + 1, attempt);
            if (first_only_ && !results_.empty())
                return;
        }
    }

    bool
    verify(const RewriteMatch& match) const
    {
        // Every pattern edge must exist concretely.
        for (const Edge& pe : def_.lhs.edges()) {
            Edge ce{PortRef{match.binding.at(pe.src.inst), pe.src.port},
                    PortRef{match.binding.at(pe.dst.inst), pe.dst.port}};
            if (std::find(graph_.edges().begin(), graph_.edges().end(),
                          ce) == graph_.edges().end())
                return false;
        }
        // Every concrete edge between matched nodes must have a
        // pattern counterpart (no unaccounted internal wiring).
        std::map<std::string, std::string> reverse;
        for (const auto& [p, c] : match.binding)
            reverse[c] = p;
        for (const Edge& ce : graph_.edges()) {
            auto src = reverse.find(ce.src.inst);
            auto dst = reverse.find(ce.dst.inst);
            if (src == reverse.end() || dst == reverse.end())
                continue;
            Edge pe{PortRef{src->second, ce.src.port},
                    PortRef{dst->second, ce.dst.port}};
            if (std::find(def_.lhs.edges().begin(),
                          def_.lhs.edges().end(),
                          pe) == def_.lhs.edges().end())
                return false;
        }
        return true;
    }

    const ExprHigh& graph_;
    const RewriteDef& def_;
    bool first_only_ = false;
    std::vector<RewriteMatch> results_;
};

/** The graph-level name of a concrete port (io or local identity). */
LowPortId
boundaryName(const ExprHigh& graph, const PortRef& port, bool is_input)
{
    const auto& ios = is_input ? graph.inputs() : graph.outputs();
    for (std::size_t i = 0; i < ios.size(); ++i)
        if (ios[i] && *ios[i] == port)
            return LowPortId::ioPort(static_cast<std::uint32_t>(i));
    return LowPortId::localPort(port.inst, port.port);
}

/** Apply a wire rewrite (empty rhs) by direct graph surgery. */
Result<ExprHigh>
applyWireRewrite(const ExprHigh& graph, const RewriteDef& def,
                 const RewriteMatch& match)
{
    ExprHigh out = graph;

    struct Wire
    {
        std::optional<PortRef> driver;      // or graph input
        std::optional<std::size_t> in_io;
        std::vector<PortRef> consumers;     // or graph output
        std::vector<std::size_t> out_ios;
    };
    std::vector<Wire> wires;
    for (auto [in_io, out_io] : def.passthrough) {
        const PortRef& lhs_in = *def.lhs.inputs()[in_io];
        const PortRef& lhs_out = *def.lhs.outputs()[out_io];
        PortRef concrete_in{match.binding.at(lhs_in.inst), lhs_in.port};
        PortRef concrete_out{match.binding.at(lhs_out.inst),
                             lhs_out.port};
        Wire wire;
        wire.driver = out.driverOf(concrete_in);
        for (std::size_t i = 0; i < out.inputs().size(); ++i)
            if (out.inputs()[i] && *out.inputs()[i] == concrete_in)
                wire.in_io = i;
        wire.consumers = out.consumersOf(concrete_out);
        for (std::size_t i = 0; i < out.outputs().size(); ++i)
            if (out.outputs()[i] && *out.outputs()[i] == concrete_out)
                wire.out_ios.push_back(i);
        wires.push_back(std::move(wire));
    }

    for (const auto& [pn, cn] : match.binding)
        out.removeNode(cn);

    for (const Wire& wire : wires) {
        if (wire.driver) {
            for (const PortRef& consumer : wire.consumers)
                out.connect(*wire.driver, consumer);
            for (std::size_t io : wire.out_ios)
                out.bindOutput(io, *wire.driver);
        } else if (wire.in_io) {
            if (wire.consumers.size() + wire.out_ios.size() > 1)
                return err(def.name +
                           ": passthrough would fan out a graph input");
            for (const PortRef& consumer : wire.consumers)
                out.bindInput(*wire.in_io, consumer);
            if (!wire.out_ios.empty())
                return err(def.name +
                           ": passthrough connects graph input directly "
                           "to graph output");
        }
        // A wire with neither driver nor io simply disappears.
    }

    Result<bool> valid = out.validate();
    if (!valid.ok())
        return valid.error().context(def.name + " wire application");
    return out;
}

}  // namespace

Result<bool>
validateMatch(const ExprHigh& graph, const RewriteDef& def,
              RewriteMatch& match)
{
    // Node types and attribute constraints.
    std::map<std::string, std::string>& captures = match.captures;
    for (const NodeDecl& pn : def.lhs.nodes()) {
        auto it = match.binding.find(pn.name);
        if (it == match.binding.end())
            return err(def.name + ": match misses pattern node " +
                       pn.name);
        const NodeDecl* cn = graph.findNode(it->second);
        if (cn == nullptr)
            return err(def.name + ": match names missing node " +
                       it->second);
        if (cn->type != pn.type)
            return err(def.name + ": type mismatch at " + cn->name);
        if (!attrsMatch(pn.attrs, cn->attrs, captures))
            return err(def.name + ": attribute mismatch at " + cn->name);
    }
    // Pattern edges exist.
    for (const Edge& pe : def.lhs.edges()) {
        Edge ce{PortRef{match.binding.at(pe.src.inst), pe.src.port},
                PortRef{match.binding.at(pe.dst.inst), pe.dst.port}};
        if (std::find(graph.edges().begin(), graph.edges().end(), ce) ==
            graph.edges().end())
            return err(def.name + ": pattern edge missing: " +
                       ce.src.toString() + " -> " + ce.dst.toString());
    }
    // No unaccounted internal wiring.
    std::map<std::string, std::string> reverse;
    for (const auto& [p, c] : match.binding)
        reverse[c] = p;
    for (const Edge& ce : graph.edges()) {
        auto src = reverse.find(ce.src.inst);
        auto dst = reverse.find(ce.dst.inst);
        if (src == reverse.end() || dst == reverse.end())
            continue;
        Edge pe{PortRef{src->second, ce.src.port},
                PortRef{dst->second, ce.dst.port}};
        if (std::find(def.lhs.edges().begin(), def.lhs.edges().end(),
                      pe) == def.lhs.edges().end())
            return err(def.name + ": unaccounted internal edge: " +
                       ce.src.toString() + " -> " + ce.dst.toString());
    }
    return true;
}

std::vector<RewriteMatch>
matchRewrite(const ExprHigh& graph, const RewriteDef& def)
{
    Matcher matcher(graph, def);
    return matcher.run(false);
}

std::optional<RewriteMatch>
matchRewriteOnce(const ExprHigh& graph, const RewriteDef& def)
{
    Matcher matcher(graph, def);
    std::vector<RewriteMatch> all = matcher.run(true);
    if (all.empty())
        return std::nullopt;
    return std::move(all[0]);
}

namespace {

/** Replace every attribute value that names a capture by its binding. */
void
substituteCaptures(AttrMap& attrs,
                   const std::map<std::string, std::string>& captures)
{
    for (auto& [key, value] : attrs) {
        auto it = captures.find(value);
        if (it != captures.end())
            value = it->second;
    }
}

}  // namespace

RewriteDef
instantiateCaptures(const RewriteDef& def,
                    const std::map<std::string, std::string>& captures)
{
    RewriteDef out = def;
    auto substitute = [&](ExprHigh& g) {
        for (const NodeDecl& node : g.nodes()) {
            AttrMap updated = node.attrs;
            substituteCaptures(updated, captures);
            g.findNode(node.name)->attrs = std::move(updated);
        }
    };
    substitute(out.lhs);
    substitute(out.rhs);
    return out;
}

namespace {

/** A port list in the order LowBase's port maps iterate (by name). */
using NamedPorts = std::vector<std::pair<std::string, LowPortId>>;

bool
hasPort(const std::vector<std::string>& ports, const std::string& port)
{
    return std::find(ports.begin(), ports.end(), port) != ports.end();
}

/** One instantiated rhs node, named as its lowered base names it. */
struct RhsBase
{
    const NodeDecl* decl = nullptr;
    std::string inst;  ///< fresh instance name
    AttrMap attrs;     ///< captures substituted
    NamedPorts inputs;
    NamedPorts outputs;
};

/**
 * Apply a node-replacing rewrite by splicing the graph instead of
 * running the section 4.2 substitution: the result equals
 * liftToExprHigh(lower(graph)[lhs := rhs]) node for node, edge for edge
 * and io for io, and fails exactly where that pipeline fails, with the
 * same message (tests/test_splice.cpp keeps the substitution as the
 * reference).
 *
 * Lowering orders the matched nodes first, so the lifted graph lists
 * the rhs nodes (template order), then the unmatched nodes (graph
 * order); its edges are the rhs edges (sorted template order), then
 * every other edge by (later endpoint's position, source, target).
 */
Result<ExprHigh>
spliceRewrite(const ExprHigh& graph, const RewriteDef& def,
              const RewriteMatch& match)
{
    const std::vector<NodeDecl>& nodes = graph.nodes();
    const std::size_t k = def.lhs.numNodes();
    if (k == 0)
        return err(def.name + ": lowerWithPrefix: prefix out of range");
    Result<bool> valid = graph.validate();
    if (!valid.ok())
        return valid.error().context("lowerToExprLow").context(def.name);
    const GraphIndex index(graph);

    // Positions in the matched-first order lowering used; a node bound
    // twice leaves that order one entry longer than the graph.
    const std::size_t unplaced = nodes.size();
    std::vector<std::size_t> position(nodes.size(), unplaced);
    std::vector<std::size_t> order;
    order.reserve(nodes.size());
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t at =
            index.first.at(match.binding.at(def.lhs.nodes()[i].name));
        if (position[at] != unplaced)
            return err(def.name +
                       ": lowerToExprLow: order must list every node");
        position[at] = i;
        order.push_back(at);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (position[i] == unplaced) {
            position[i] = order.size();
            order.push_back(i);
        }
    auto matched = [&](std::size_t at) { return position[at] < k; };
    for (std::size_t at : order)
        if (!index.sig(at).ok())
            return index.sig(at)
                .error()
                .context("lowerToExprLow: node " + nodes[at].name)
                .context(def.name);

    // Graph-level names of the lhs boundary, per io index.
    auto boundary = [&](const std::vector<std::optional<PortRef>>& ios,
                        bool is_input) {
        std::vector<std::optional<LowPortId>> names(ios.size());
        for (std::size_t i = 0; i < ios.size(); ++i)
            if (ios[i])
                names[i] = boundaryName(
                    graph,
                    PortRef{match.binding.at(ios[i]->inst), ios[i]->port},
                    is_input);
        return names;
    };
    std::vector<std::optional<LowPortId>> in_names =
        boundary(def.lhs.inputs(), true);
    std::vector<std::optional<LowPortId>> out_names =
        boundary(def.lhs.outputs(), false);
    auto boundaryAt = [](const std::vector<std::optional<LowPortId>>& names,
                         std::size_t i) -> const LowPortId& {
        if (i >= names.size() || !names[i])
            throw std::out_of_range(
                "rhs binds an io index the lhs leaves unbound");
        return *names[i];
    };

    // Fresh instance names for the rhs template nodes.
    const std::vector<NodeDecl>& templ = def.rhs.nodes();
    std::vector<RhsBase> bases(templ.size());
    for (std::size_t t = 0; t < templ.size(); ++t) {
        for (std::size_t i = 0;; ++i) {
            std::string candidate = templ[t].name + std::to_string(i);
            bool used = index.find(candidate) >= 0;
            for (std::size_t u = 0; u < t && !used; ++u)
                used = bases[u].inst == candidate;
            if (!used) {
                bases[t].inst = std::move(candidate);
                break;
            }
        }
    }

    // The rhs bases: identity names internally, the lhs boundary names
    // on the boundary.
    for (std::size_t t = 0; t < templ.size(); ++t) {
        RhsBase& base = bases[t];
        base.decl = &templ[t];
        base.attrs = templ[t].attrs;
        substituteCaptures(base.attrs, match.captures);
        Result<Signature> sig = signatureOf(templ[t].type, base.attrs);
        if (!sig.ok())
            return sig.error().context(def.name + " rhs");
        auto name = [&](const std::string& port,
                        const std::vector<std::optional<PortRef>>& ios,
                        const std::vector<std::optional<LowPortId>>& names) {
            LowPortId id = LowPortId::localPort(base.inst, port);
            for (std::size_t i = 0; i < ios.size(); ++i)
                if (ios[i] && ios[i]->inst == templ[t].name &&
                    ios[i]->port == port)
                    id = boundaryAt(names, i);
            return id;
        };
        for (const std::string& port : sig.value().inputs)
            base.inputs.emplace_back(
                port, name(port, def.rhs.inputs(), in_names));
        for (const std::string& port : sig.value().outputs)
            base.outputs.emplace_back(
                port, name(port, def.rhs.outputs(), out_names));
        std::sort(base.inputs.begin(), base.inputs.end());
        std::sort(base.outputs.begin(), base.outputs.end());
    }

    // Lifting registers every local wire name once; a second rhs port
    // under one name (an lhs boundary port bound at two io indices)
    // fails it.
    using WireTable = std::vector<std::pair<const LowPortId*, PortRef>>;
    WireTable producers;
    WireTable consumers;
    std::vector<std::pair<std::uint32_t, PortRef>> in_ios;
    std::vector<std::pair<std::uint32_t, PortRef>> out_ios;
    std::string dup_name;
    auto registerPorts =
        [&](const RhsBase& base, const NamedPorts& ports, WireTable& table,
            std::vector<std::pair<std::uint32_t, PortRef>>& ios) {
            for (const auto& [port, id] : ports) {
                if (id.kind == LowPortId::Kind::io) {
                    ios.emplace_back(id.io, PortRef{base.inst, port});
                    continue;
                }
                for (const auto& [seen, at] : table)
                    if (*seen == id) {
                        dup_name = id.toString();
                        return false;
                    }
                table.emplace_back(&id, PortRef{base.inst, port});
            }
            return true;
        };
    bool dup_error = false;
    for (const RhsBase& base : bases) {
        if (!registerPorts(base, base.outputs, producers, out_ios) ||
            !registerPorts(base, base.inputs, consumers, in_ios))
            dup_error = true;
    }
    if (dup_error)
        return err("liftToExprHigh: duplicate instance or port name: " +
                   dup_name);

    std::vector<Edge> edges;
    edges.reserve(def.rhs.edges().size() + graph.edges().size());
    auto dangling = [](const PortRef& src, const PortRef& dst) {
        return err("liftToExprHigh: dangling connect " +
                   LowPortId::localPort(src.inst, src.port).toString() +
                   " -> " +
                   LowPortId::localPort(dst.inst, dst.port).toString());
    };

    // rhs edges, in sorted template order. A name lifting finds is an
    // rhs port, or (for an edge naming no rhs node) an unmatched node's
    // own signature port that no io binds.
    auto lookup = [&](const PortRef& ref, const WireTable& table,
                      bool is_output) -> std::optional<PortRef> {
        for (const auto& [seen, at] : table)
            if (seen->inst == ref.inst && seen->wire == ref.port)
                return at;
        std::ptrdiff_t at = index.find(ref.inst);
        if (at < 0 || matched(at))
            return std::nullopt;
        const Signature& sig = index.sig(at).value();
        if (!hasPort(is_output ? sig.outputs : sig.inputs, ref.port))
            return std::nullopt;
        for (const auto& io : is_output ? graph.outputs() : graph.inputs())
            if (io && *io == ref)
                return std::nullopt;
        return ref;
    };
    auto freshOf = [&](const std::string& inst) -> std::string {
        for (const RhsBase& base : bases)
            if (base.decl->name == inst)
                return base.inst;
        return "";
    };
    std::vector<Edge> rhs_edges = def.rhs.edges();
    std::sort(rhs_edges.begin(), rhs_edges.end());
    for (const Edge& e : rhs_edges) {
        PortRef src{freshOf(e.src.inst), e.src.port};
        PortRef dst{freshOf(e.dst.inst), e.dst.port};
        std::optional<PortRef> from = lookup(src, producers, true);
        std::optional<PortRef> to = lookup(dst, consumers, false);
        if (!from || !to)
            return dangling(src, dst);
        edges.push_back(Edge{std::move(*from), std::move(*to)});
    }

    // Every edge leaving the matched set, in the order lowering placed
    // its connect: by later endpoint's position, then source, target.
    struct Pending
    {
        std::size_t position;
        const Edge* edge;
        std::size_t src;
        std::size_t dst;
    };
    std::vector<Pending> rest;
    rest.reserve(graph.edges().size());
    for (const Edge& e : graph.edges()) {
        std::size_t src = index.first.at(e.src.inst);
        std::size_t dst = index.first.at(e.dst.inst);
        if (!matched(src) || !matched(dst))
            rest.push_back(
                {std::max(position[src], position[dst]), &e, src, dst});
    }
    std::sort(rest.begin(), rest.end(),
              [](const Pending& a, const Pending& b) {
                  if (a.position != b.position)
                      return a.position < b.position;
                  return *a.edge < *b.edge;
              });
    // An unmatched endpoint keeps its port when its signature has it
    // (validate() rules out io-bound endpoints); a matched one lands on
    // the rhs port registered under its wire name.
    auto land = [&](const PortRef& ref, std::size_t at,
                    const WireTable& table,
                    bool is_output) -> const PortRef* {
        if (!matched(at)) {
            const Signature& sig = index.sig(at).value();
            return hasPort(is_output ? sig.outputs : sig.inputs, ref.port)
                       ? &ref
                       : nullptr;
        }
        for (const auto& [seen, port] : table)
            if (seen->inst == ref.inst && seen->wire == ref.port)
                return &port;
        return nullptr;
    };
    for (const Pending& p : rest) {
        const PortRef* from = land(p.edge->src, p.src, producers, true);
        const PortRef* to = land(p.edge->dst, p.dst, consumers, false);
        if (from == nullptr || to == nullptr)
            return dangling(p.edge->src, p.edge->dst);
        edges.push_back(Edge{*from, *to});
    }

    // io bindings: the rhs ports named by a graph io, then the
    // unmatched nodes' bound signature ports. Lowering names a port
    // bound at several indices by the last one.
    std::vector<std::optional<PortRef>> inputs;
    std::vector<std::optional<PortRef>> outputs;
    auto bind = [](std::vector<std::optional<PortRef>>& ios, std::size_t i,
                   const PortRef& port) {
        if (ios.size() <= i)
            ios.resize(i + 1);
        ios[i] = port;
    };
    for (const auto& [io, port] : in_ios)
        bind(inputs, io, port);
    for (const auto& [io, port] : out_ios)
        bind(outputs, io, port);
    auto keepBindings = [&](const std::vector<std::optional<PortRef>>& ios,
                            bool is_input) {
        for (std::size_t i = 0; i < ios.size(); ++i) {
            if (!ios[i])
                continue;
            std::size_t at = index.first.at(ios[i]->inst);
            const Signature& sig = index.sig(at).value();
            if (matched(at) ||
                !hasPort(is_input ? sig.inputs : sig.outputs, ios[i]->port))
                continue;
            bool rebound = false;
            for (std::size_t j = i + 1; j < ios.size() && !rebound; ++j)
                rebound = ios[j] == ios[i];
            if (rebound)
                continue;
            bind(is_input ? inputs : outputs, i, *ios[i]);
        }
    };
    keepBindings(graph.inputs(), true);
    keepBindings(graph.outputs(), false);

    std::vector<NodeDecl> kept;
    kept.reserve(bases.size() + nodes.size() - k);
    for (RhsBase& base : bases)
        kept.push_back(NodeDecl{std::move(base.inst), base.decl->type,
                                std::move(base.attrs)});
    for (std::size_t at : order)
        if (!matched(at))
            kept.push_back(nodes[at]);
    ExprHigh out(std::move(kept), std::move(edges), std::move(inputs),
                 std::move(outputs));
    Result<bool> lifted = out.validate();
    if (!lifted.ok())
        return lifted.error().context("liftToExprHigh");
    return out;
}

}  // namespace

Result<ExprHigh>
applyRewrite(const ExprHigh& graph, const RewriteDef& def,
             const RewriteMatch& match_in)
{
    RewriteMatch match = match_in;
    Result<bool> match_ok = validateMatch(graph, def, match);
    if (!match_ok.ok())
        return match_ok.error();

    if (def.rhs.numNodes() == 0)
        return applyWireRewrite(graph, def, match);
    return spliceRewrite(graph, def, match);
}

Result<RefinementReport>
verifyRewrite(const RewriteDef& def, const Environment& env,
              const std::vector<Token>& tokens,
              const ExplorationLimits& limits)
{
    if (def.rhs.numNodes() == 0)
        return err(def.name +
                   ": wire rewrites have no module denotation to check");
    return checkGraphRefinement(def.rhs, def.lhs, env, tokens, limits);
}

}  // namespace graphiti
