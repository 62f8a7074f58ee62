#include "guard/validator.hpp"

#include <algorithm>
#include <deque>
#include <string_view>
#include <unordered_set>

#include "graph/signatures.hpp"
#include "graph/typecheck.hpp"
#include "obs/scope.hpp"

namespace graphiti::guard {

namespace {

/** Component types that can introduce a token into a cycle (an init
 * emits its initial value; mux/merge/tagger pull from outside the
 * cycle). A cycle containing none of these can never start. */
bool
breaksCycle(const std::string& type)
{
    return type == "init" || type == "mux" || type == "merge" ||
           type == "tagger";
}

/**
 * One validation pass. The graph is numbered once (GraphIndex: a
 * name -> node hash, each node's signature); ports are numbered
 * densely per node (signature inputs, then outputs) and edges are
 * listed per source and target node, so no pass scans the edge list
 * per port. A name declared twice resolves to its first node, as a
 * name lookup does.
 */
class Validator
{
  public:
    Validator(const ExprHigh& graph, const ValidatorOptions& options)
        : graph_(graph), options_(options), index_(graph)
    {
    }

    ValidationReport
    run()
    {
        structural();
        // The deeper passes assume per-node signatures and a sane
        // wiring table; skip them when the structure is already
        // broken (their findings would be noise).
        if (report_.errorCount() == 0) {
            if (options_.check_types)
                types();
            if (options_.check_token_flow) {
                reachability();
                cycles();
            }
        }
        if (options_.check_tags)
            tags();
        return std::move(report_);
    }

  private:
    const Signature&
    sig(std::size_t node) const
    {
        return index_.sig(node).value();
    }

    void
    structural()
    {
        const std::vector<NodeDecl>& nodes = graph_.nodes();
        slot_.assign(nodes.size(), 0);
        std::size_t slots = 0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const NodeDecl& node = nodes[i];
            if (index_.first.at(node.name) != i)
                report_.add(Severity::Error, "structure.duplicate-name",
                            node.name, "instance name declared twice");
            if (index_.sig(i).ok()) {
                slot_[i] = slots;
                slots += sig(i).inputs.size() + sig(i).outputs.size();
            } else {
                report_.add(Severity::Error, "structure.unknown-type",
                            node.name, index_.sig(i).error().message);
            }
            checkArity(node);
        }

        // Driver / consumer counts over edges and io bindings, per
        // port slot (inputs count drivers, outputs consumers).
        std::vector<std::size_t> wired(slots, 0);
        auto count = [&](std::ptrdiff_t slot) {
            if (slot >= 0)
                ++wired[static_cast<std::size_t>(slot)];
        };
        for (const Edge& e : graph_.edges()) {
            count(endpoint(e.src, /*is_output=*/true,
                           [&] { return "edge source " + e.src.toString(); }));
            count(endpoint(e.dst, /*is_output=*/false,
                           [&] { return "edge target " + e.dst.toString(); }));
        }
        for (std::size_t i = 0; i < graph_.inputs().size(); ++i)
            if (graph_.inputs()[i])
                count(endpoint(*graph_.inputs()[i], /*is_output=*/false,
                               [&] { return "graph input " +
                                            std::to_string(i); }));
        for (std::size_t i = 0; i < graph_.outputs().size(); ++i)
            if (graph_.outputs()[i])
                count(endpoint(*graph_.outputs()[i], /*is_output=*/true,
                               [&] { return "graph output " +
                                            std::to_string(i); }));

        // Every signature port must be wired exactly once (outputs:
        // at most once; a dropped output is only a warning since the
        // token simply accumulates in its channel).
        for (const NodeDecl& node : nodes) {
            std::size_t at = index_.first.at(node.name);
            if (!index_.sig(at).ok())
                continue;
            const Signature& s = sig(at);
            for (std::size_t k = 0; k < s.inputs.size(); ++k) {
                std::size_t n = wired[slot_[at] + k];
                if (n == 0)
                    report_.add(Severity::Error,
                                "structure.dangling-input",
                                node.name,
                                "input port " + s.inputs[k] +
                                    " has no driver; the component "
                                    "can never fire");
                else if (n > 1)
                    report_.add(Severity::Error,
                                "structure.double-driven", node.name,
                                "input port " + s.inputs[k] + " has " +
                                    std::to_string(n) + " drivers");
            }
            for (std::size_t k = 0; k < s.outputs.size(); ++k) {
                std::size_t n = wired[slot_[at] + s.inputs.size() + k];
                if (n == 0)
                    report_.add(Severity::Warning,
                                "structure.dangling-output",
                                node.name,
                                "output port " + s.outputs[k] +
                                    " has no consumer; its tokens "
                                    "accumulate unread");
                else if (n > 1)
                    report_.add(Severity::Error,
                                "structure.double-used", node.name,
                                "output port " + s.outputs[k] + " feeds " +
                                    std::to_string(n) +
                                    " inputs (insert a fork)");
            }
        }
    }

    /** Arity attributes must parse to a sane positive count. */
    void
    checkArity(const NodeDecl& node)
    {
        auto check = [&](const char* key) {
            if (node.attrs.find(key) == node.attrs.end())
                return;
            int v = attrInt(node.attrs, key, -1);
            if (v < 1 || v > 1024)
                report_.add(Severity::Error, "structure.bad-arity",
                            node.name,
                            std::string(key) + " attribute '" +
                                attrStr(node.attrs, key, "") +
                                "' is not a count in [1, 1024]");
        };
        if (node.type == "fork")
            check("out");
        if (node.type == "join")
            check("in");
    }

    /** Edge/io endpoint sanity: the port's slot when it is usable,
     * else -1. @p where names the endpoint in a diagnostic. */
    template <typename Where>
    std::ptrdiff_t
    endpoint(const PortRef& ref, bool is_output, Where where)
    {
        std::ptrdiff_t at = index_.find(ref.inst);
        if (at < 0) {
            report_.add(Severity::Error, "structure.missing-instance",
                        ref.inst,
                        where() + " references an undeclared instance");
            return -1;
        }
        if (!index_.sig(at).ok())
            return -1;  // unknown-type already reported
        const Signature& s = sig(static_cast<std::size_t>(at));
        const std::vector<std::string>& ports =
            is_output ? s.outputs : s.inputs;
        auto it = std::find(ports.begin(), ports.end(), ref.port);
        if (it == ports.end()) {
            report_.add(Severity::Error, "structure.unknown-port",
                        ref.inst,
                        where() + " names no " +
                            (is_output ? "output" : "input") +
                            " port of a " + graph_.nodes()[at].type);
            return -1;
        }
        std::size_t slot = slot_[at] + static_cast<std::size_t>(
                                           it - ports.begin());
        if (is_output)
            slot += s.inputs.size();
        return static_cast<std::ptrdiff_t>(slot);
    }

    /** Edges by source node (first node of a name), in edge order. */
    void
    indexEdges()
    {
        if (edges_indexed_)
            return;
        edges_indexed_ = true;
        out_edges_.resize(graph_.nodes().size());
        for (const Edge& e : graph_.edges()) {
            std::ptrdiff_t src = index_.find(e.src.inst);
            if (src >= 0)
                out_edges_[src].push_back(&e);
        }
    }

    void
    types()
    {
        std::optional<std::string> conflict = findTypeConflict(index_);
        if (conflict)
            report_.add(Severity::Error, "type.conflict", "", *conflict);
    }

    /** Forward token-flow flood from graph inputs and generators
     * (runs only on a structurally clean graph: every endpoint is a
     * declared signature port and names are unique). */
    void
    reachability()
    {
        indexEdges();
        const std::vector<NodeDecl>& nodes = graph_.nodes();
        std::vector<char> reached(nodes.size(), 0);
        std::deque<std::size_t> frontier;
        auto seed = [&](const std::string& inst) {
            std::size_t at = index_.first.at(inst);
            if (!reached[at]) {
                reached[at] = 1;
                frontier.push_back(at);
            }
        };
        for (const auto& binding : graph_.inputs())
            if (binding)
                seed(binding->inst);
        for (const NodeDecl& node : nodes)
            if (node.type == "source" || node.type == "init")
                seed(node.name);
        while (!frontier.empty()) {
            std::size_t at = frontier.front();
            frontier.pop_front();
            for (const Edge* e : out_edges_[at])
                seed(e->dst.inst);
        }
        for (std::size_t i = 0; i < nodes.size(); ++i)
            if (!reached[i])
                report_.add(Severity::Warning, "graph.unreachable",
                            nodes[i].name,
                            "no token from any graph input or "
                            "generator can reach this component");
        for (std::size_t i = 0; i < graph_.outputs().size(); ++i) {
            if (!graph_.outputs()[i])
                continue;
            const std::string& inst = graph_.outputs()[i]->inst;
            if (!reached[index_.first.at(inst)])
                report_.add(Severity::Error, "token.starved-output",
                            inst,
                            "graph output " + std::to_string(i) +
                                " can never receive a token");
        }
    }

    /** Token conservation: every cycle needs a component that can
     * introduce a token (init/mux/merge/tagger); a cycle of pure
     * plumbing starts empty and stays empty — guaranteed deadlock. */
    void
    cycles()
    {
        // Node-index adjacency (edges only; io bindings are acyclic).
        std::vector<std::vector<std::size_t>> adj(graph_.nodes().size());
        std::vector<bool> self_loop(graph_.nodes().size(), false);
        for (const Edge& e : graph_.edges()) {
            std::ptrdiff_t s = index_.find(e.src.inst);
            std::ptrdiff_t d = index_.find(e.dst.inst);
            if (s < 0 || d < 0)
                continue;
            if (s == d)
                self_loop[s] = true;
            adj[s].push_back(static_cast<std::size_t>(d));
        }

        // Iterative Tarjan SCC.
        const std::size_t n = adj.size();
        std::vector<int> low(n, -1), num(n, -1);
        std::vector<bool> on_stack(n, false);
        std::vector<std::size_t> stack;
        int counter = 0;
        struct Frame
        {
            std::size_t v;
            std::size_t edge = 0;
        };
        for (std::size_t root = 0; root < n; ++root) {
            if (num[root] != -1)
                continue;
            std::vector<Frame> call{{root}};
            while (!call.empty()) {
                Frame& f = call.back();
                std::size_t v = f.v;
                if (f.edge == 0) {
                    num[v] = low[v] = counter++;
                    stack.push_back(v);
                    on_stack[v] = true;
                }
                if (f.edge < adj[v].size()) {
                    std::size_t w = adj[v][f.edge++];
                    if (num[w] == -1)
                        call.push_back(Frame{w});
                    else if (on_stack[w])
                        low[v] = std::min(low[v], num[w]);
                    continue;
                }
                if (low[v] == num[v]) {
                    std::vector<std::size_t> scc;
                    for (;;) {
                        std::size_t w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        scc.push_back(w);
                        if (w == v)
                            break;
                    }
                    checkScc(scc, self_loop);
                }
                call.pop_back();
                if (!call.empty()) {
                    Frame& parent = call.back();
                    low[parent.v] =
                        std::min(low[parent.v], low[v]);
                }
            }
        }
    }

    void
    checkScc(const std::vector<std::size_t>& scc,
             const std::vector<bool>& self_loop)
    {
        bool cyclic = scc.size() > 1 ||
                      (scc.size() == 1 && self_loop[scc[0]]);
        if (!cyclic)
            return;
        std::vector<std::string> names;
        for (std::size_t i : scc) {
            const NodeDecl& node = graph_.nodes()[i];
            if (breaksCycle(node.type))
                return;
            names.push_back(node.name);
        }
        std::sort(names.begin(), names.end());
        std::string list;
        for (std::size_t i = 0; i < std::min<std::size_t>(names.size(), 6);
             ++i)
            list += (i ? ", " : "") + names[i];
        if (names.size() > 6)
            list += ", ...";
        report_.add(Severity::Error, "token.cycle-without-source",
                    names.front(),
                    "cycle {" + list +
                        "} contains no init/mux/merge/tagger; it can "
                        "never hold a token");
    }

    void
    tags()
    {
        for (const NodeDecl& node : graph_.nodes()) {
            if (node.type != "tagger")
                continue;
            int count = attrInt(node.attrs, "tags", -1);
            if (count < 1 || count > options_.max_tag_count)
                report_.add(Severity::Error, "tag.count", node.name,
                            "tags attribute '" +
                                attrStr(node.attrs, "tags", "") +
                                "' is not a count in [1, " +
                                std::to_string(options_.max_tag_count) +
                                "]");
            checkRegion(node);
        }
    }

    /** Consumers of output @p port of instance @p inst, in edge
     * order. */
    template <typename Visit>
    void
    forEachConsumer(const std::string& inst, const std::string& port,
                    Visit visit)
    {
        std::ptrdiff_t at = index_.find(inst);
        if (at < 0)
            return;
        for (const Edge* e : out_edges_[at])
            if (e->src.port == port)
                visit(e->dst);
    }

    /** Flood the tagged region from out0 and check its shape. */
    void
    checkRegion(const NodeDecl& tagger)
    {
        indexEdges();
        std::unordered_set<std::string_view> region;
        bool returns = false;
        std::deque<const PortRef*> frontier;
        auto push = [&](const PortRef& c) { frontier.push_back(&c); };
        forEachConsumer(tagger.name, "out0", push);
        bool empty_region = frontier.empty();
        while (!frontier.empty()) {
            const PortRef& at = *frontier.front();
            frontier.pop_front();
            if (at.inst == tagger.name) {
                if (at.port == "in1")
                    returns = true;
                continue;
            }
            if (!region.insert(at.inst).second)
                continue;
            std::ptrdiff_t n = index_.find(at.inst);
            if (n < 0)
                continue;
            if (graph_.nodes()[n].type == "tagger") {
                report_.add(Severity::Error, "tag.nested-region",
                            tagger.name,
                            "tagged region contains tagger " + at.inst +
                                "; nested tag domains are unsupported");
                continue;
            }
            if (!index_.sig(n).ok())
                continue;
            for (const std::string& port : sig(n).outputs)
                forEachConsumer(at.inst, port, push);
        }
        std::optional<PortRef> ret =
            graph_.driverOf(PortRef{tagger.name, "in1"});
        if (empty_region || !returns) {
            report_.add(Severity::Error, "tag.unpaired", tagger.name,
                        "region fed by out0 never returns a tagged "
                        "token to in1");
        } else if (ret && ret->inst != tagger.name &&
                   region.count(ret->inst) == 0) {
            report_.add(Severity::Error, "tag.foreign-return",
                        tagger.name,
                        "in1 is driven by " + ret->inst +
                            ", which lies outside this tagger's "
                            "region");
        }
    }

    const ExprHigh& graph_;
    const ValidatorOptions& options_;
    GraphIndex index_;
    /** First port slot of each node (signature inputs, then
     * outputs). */
    std::vector<std::size_t> slot_;
    bool edges_indexed_ = false;
    std::vector<std::vector<const Edge*>> out_edges_;
    ValidationReport report_;
};

}  // namespace

ValidationReport
validateCircuit(const ExprHigh& graph, const ValidatorOptions& options)
{
    GRAPHITI_OBS_TIMER(obs_timer, "guard.validate_seconds");
    GRAPHITI_OBS_COUNT("guard.validations", 1);
    ValidationReport report = Validator(graph, options).run();
    if (!report.ok())
        GRAPHITI_OBS_COUNT("guard.validation_errors",
                           static_cast<std::int64_t>(report.errorCount()));
    return report;
}

}  // namespace graphiti::guard
