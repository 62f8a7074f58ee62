#include "rewrite/ooo_pipeline.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "graph/signatures.hpp"

namespace graphiti {

namespace {

/** Trace a condition wire back through forks to its source port. */
std::optional<PortRef>
condSource(const ExprHigh& g, const PortRef& consumer)
{
    std::optional<PortRef> driver = g.driverOf(consumer);
    while (driver) {
        const NodeDecl* node = g.findNode(driver->inst);
        if (node == nullptr)
            return std::nullopt;
        if (node->type != "fork")
            return driver;
        driver = g.driverOf(PortRef{node->name, "in0"});
    }
    return std::nullopt;
}

/** A fork tree rooted at the consumer of @p source. */
struct ForkTree
{
    std::vector<std::string> forks;     ///< fork nodes, DFS order
    std::vector<PortRef> leaves;        ///< non-fork consumer ports
    std::vector<PortRef> leaf_sources;  ///< fork output driving each leaf
};

/** Collect the (binary, post fork-split) tree hanging off @p source. */
std::optional<ForkTree>
collectForkTree(const ExprHigh& g, const PortRef& source)
{
    std::vector<PortRef> consumers = g.consumersOf(source);
    if (consumers.size() != 1)
        return std::nullopt;
    const NodeDecl* root = g.findNode(consumers[0].inst);
    if (root == nullptr || root->type != "fork")
        return std::nullopt;

    ForkTree tree;
    std::function<bool(const std::string&)> visit =
        [&](const std::string& fork) -> bool {
        tree.forks.push_back(fork);
        int arity = attrInt(g.findNode(fork)->attrs, "out", 2);
        for (int i = 0; i < arity; ++i) {
            PortRef out{fork, "out" + std::to_string(i)};
            std::vector<PortRef> next = g.consumersOf(out);
            if (next.size() != 1)
                return false;  // dangling fork output: unsupported
            const NodeDecl* child = g.findNode(next[0].inst);
            if (child != nullptr && child->type == "fork") {
                if (!visit(child->name))
                    return false;
            } else {
                tree.leaves.push_back(next[0]);
                tree.leaf_sources.push_back(out);
            }
        }
        return true;
    };
    if (!visit(root->name))
        return std::nullopt;
    return tree;
}

/**
 * Regroup the condition fork tree so that the @p front_groups leaves
 * are each served by a dedicated fork2, with the second-to-last level
 * pairing the groups (this parent becomes the normalized loop's
 * condition fork). Remaining leaves chain off the top. One generated
 * rewrite, applied through the engine.
 */
Result<ExprHigh>
regroupCondTree(RewriteEngine& engine, const ExprHigh& g,
                const PortRef& source,
                const std::vector<std::vector<PortRef>>& front_groups)
{
    std::optional<ForkTree> tree = collectForkTree(g, source);
    if (!tree)
        return err("regroup: condition is not a clean fork tree");

    // Leaf -> io index (its position in the lhs enumeration).
    std::map<PortRef, std::size_t> leaf_io;
    for (std::size_t i = 0; i < tree->leaves.size(); ++i)
        leaf_io[tree->leaves[i]] = i;

    std::set<PortRef> in_front;
    for (const auto& group : front_groups)
        for (const PortRef& leaf : group) {
            if (leaf_io.find(leaf) == leaf_io.end())
                return err("regroup: requested leaf " + leaf.toString() +
                           " is not in the tree");
            in_front.insert(leaf);
        }
    std::vector<PortRef> rest;
    for (const PortRef& leaf : tree->leaves)
        if (in_front.count(leaf) == 0)
            rest.push_back(leaf);

    RewriteDef def;
    def.name = "fork-regroup";
    // lhs: the concrete tree.
    for (const std::string& fork : tree->forks)
        def.lhs.addNode(fork, "fork", g.findNode(fork)->attrs);
    for (const Edge& e : g.edges()) {
        bool src_in = std::find(tree->forks.begin(), tree->forks.end(),
                                e.src.inst) != tree->forks.end();
        bool dst_in = std::find(tree->forks.begin(), tree->forks.end(),
                                e.dst.inst) != tree->forks.end();
        if (src_in && dst_in)
            def.lhs.connect(e.src, e.dst);
    }
    def.lhs.bindInput(0, PortRef{tree->forks.front(), "in0"});
    for (std::size_t i = 0; i < tree->leaves.size(); ++i)
        def.lhs.bindOutput(i, tree->leaf_sources[i]);

    // rhs: chain of `rest` leaves ending in the group parent.
    int counter = 0;
    auto fresh = [&] { return "rf" + std::to_string(counter++); };

    // Build the group forks bottom-up as (name, outputs -> io index).
    struct Pending
    {
        std::string name;
    };
    // group fork for each front group (size 1 groups attach directly).
    std::vector<std::string> group_forks;
    std::vector<std::optional<std::size_t>> group_direct_io;
    for (const auto& group : front_groups) {
        if (group.size() == 1) {
            group_forks.push_back("");
            group_direct_io.push_back(leaf_io[group[0]]);
            continue;
        }
        // Right chain within the group.
        std::string name = fresh();
        def.rhs.addNode(name, "fork", {{"out", "2"}});
        std::string current = name;
        for (std::size_t i = 0; i + 1 < group.size(); ++i) {
            def.rhs.bindOutput(leaf_io[group[i]],
                               PortRef{current, "out0"});
            if (i + 2 == group.size()) {
                def.rhs.bindOutput(leaf_io[group[i + 1]],
                                   PortRef{current, "out1"});
            } else {
                std::string next = fresh();
                def.rhs.addNode(next, "fork", {{"out", "2"}});
                def.rhs.connect(current, "out1", next, "in0");
                current = next;
            }
        }
        group_forks.push_back(name);
        group_direct_io.push_back(std::nullopt);
    }

    // Parent pairing the (typically two) groups: a right chain.
    std::string parent = fresh();
    def.rhs.addNode(parent, "fork",
                    {{"out", std::to_string(front_groups.size())}});
    for (std::size_t i = 0; i < front_groups.size(); ++i) {
        std::string port = "out" + std::to_string(i);
        if (group_direct_io[i])
            def.rhs.bindOutput(*group_direct_io[i], PortRef{parent, port});
        else
            def.rhs.connect(parent, port, group_forks[i], "in0");
    }

    // Chain the rest above the parent.
    std::string top = parent;
    for (std::size_t i = rest.size(); i-- > 0;) {
        std::string name = fresh();
        def.rhs.addNode(name, "fork", {{"out", "2"}});
        def.rhs.bindOutput(leaf_io[rest[i]], PortRef{name, "out0"});
        def.rhs.connect(name, "out1", top, "in0");
        top = name;
    }
    def.rhs.bindInput(0, PortRef{top, "in0"});

    RewriteMatch match;
    for (const std::string& fork : tree->forks)
        match.binding[fork] = fork;
    return engine.applyAt(g, def, match)
        .withContext("fork-regroup");
}

/** Names used by the combining phase for one loop. */
struct LoopGroup
{
    PortRef cond_source;
    std::vector<LoopInfo> loops;
};

std::vector<LoopGroup>
groupLoops(const ExprHigh& g, const std::vector<LoopInfo>& loops)
{
    std::vector<LoopGroup> groups;
    for (const LoopInfo& loop : loops) {
        std::optional<PortRef> source =
            condSource(g, PortRef{loop.branch, "in1"});
        if (!source)
            continue;
        bool placed = false;
        for (LoopGroup& group : groups) {
            if (group.cond_source == *source) {
                group.loops.push_back(loop);
                placed = true;
                break;
            }
        }
        if (!placed)
            groups.push_back(LoopGroup{*source, {loop}});
    }
    return groups;
}

std::vector<std::string>
forkSplitRuleNames()
{
    std::vector<std::string> names;
    for (int arity = 3; arity <= 8; ++arity)
        names.push_back("fork-split-" + std::to_string(arity));
    return names;
}

/** Phase 1 step: combine loops A and B of one group into one loop. */
Result<ExprHigh>
combineLoopPair(RewriteEngine& engine, const ExprHigh& graph,
                const LoopInfo& a, const LoopInfo& b,
                const PortRef& cond_source)
{
    // Normalize fork arities, then regroup the condition tree so the
    // two branches and the two inits get dedicated fork2s.
    Result<ExprHigh> g = engine.applyExhaustively(graph,
                                                  forkSplitRuleNames());
    if (!g.ok())
        return g;
    g = regroupCondTree(engine, g.value(), cond_source,
                        {{PortRef{a.branch, "in1"}, PortRef{b.branch, "in1"}},
                         {PortRef{a.init, "in0"}, PortRef{b.init, "in0"}}});
    if (!g.ok())
        return g;

    // combine-init at the init pair's fork.
    std::optional<PortRef> init_fork =
        g.value().driverOf(PortRef{a.init, "in0"});
    if (!init_fork)
        return err("combine: init fork vanished");
    RewriteMatch m;
    m.binding = {{"forkC", init_fork->inst},
                 {"initA", a.init},
                 {"initB", b.init}};
    g = engine.applyAt(g.value(), *engine.findRule("combine-init"), m);
    if (!g.ok())
        return g;

    // combine-mux at the fork now feeding both mux conditions.
    std::optional<PortRef> mux_fork =
        g.value().driverOf(PortRef{a.mux, "in0"});
    if (!mux_fork)
        return err("combine: mux condition fork vanished");
    m.binding = {{"forkC", mux_fork->inst},
                 {"muxA", a.mux},
                 {"muxB", b.mux}};
    m.captures.clear();
    g = engine.applyAt(g.value(), *engine.findRule("combine-mux"), m);
    if (!g.ok())
        return g;

    // combine-branch at the fork feeding both branch conditions.
    std::optional<PortRef> br_fork =
        g.value().driverOf(PortRef{a.branch, "in1"});
    if (!br_fork)
        return err("combine: branch condition fork vanished");
    m.binding = {{"forkC", br_fork->inst},
                 {"brA", a.branch},
                 {"brB", b.branch}};
    m.captures.clear();
    g = engine.applyAt(g.value(), *engine.findRule("combine-branch"), m);
    if (!g.ok())
        return g;

    // Cleanup (phase 2): dissolve split/join residue on the loopback.
    return engine.applyExhaustively(g.value(), {"split-join-elim"});
}

/** Phases 3-5 on a fully combined loop. */
Result<ExprHigh>
transformSingleLoop(RewriteEngine& engine, Environment& env,
                    const ExprHigh& graph, const LoopInfo& loop,
                    const PipelineOptions& options,
                    LoopTransformReport& report,
                    std::vector<PipelineSnapshot>* snapshots)
{
    auto snapshot = [&](const char* phase, const ExprHigh& g) {
        if (snapshots != nullptr)
            snapshots->push_back(PipelineSnapshot{phase, g});
    };
    // Phase 3: pure generation (includes the side-effect guard).
    Result<PureGenResult> pure = generatePureBody(graph, loop, env,
                                                  engine);
    if (!pure.ok())
        return pure.error();
    ExprHigh g = pure.value().graph;
    report.body_fn = pure.value().fn_name;
    report.body_latency = pure.value().latency;
    report.term_size_before = pure.value().term_size_before;
    report.term_size_after = pure.value().term_size_after;
    snapshot("pure-generation", g);

    // The condition fork must route out0 -> branch, out1 -> init.
    std::optional<PortRef> cond_fork_out =
        g.driverOf(PortRef{loop.branch, "in1"});
    if (!cond_fork_out)
        return err("normalized loop lost its condition");
    if (cond_fork_out->port != "out0") {
        RewriteMatch swap;
        swap.binding = {{"f", cond_fork_out->inst}};
        Result<ExprHigh> swapped =
            engine.applyAt(g, *engine.findRule("fork-swap"), swap);
        if (!swapped.ok())
            return swapped;
        g = swapped.take();
    }

    // Phase 4: the main out-of-order rewrite at an explicit match.
    std::optional<PortRef> fork_ref = g.driverOf(PortRef{loop.branch,
                                                         "in1"});
    std::string pure_node;
    std::string split_node;
    for (const NodeDecl& node : g.nodes())
        if (node.type == "pure" &&
            attrStr(node.attrs, "fn", "") == report.body_fn)
            pure_node = node.name;
    if (pure_node.empty() || !fork_ref)
        return err("normalized loop shape incomplete");
    auto split_consumers = g.consumersOf(PortRef{pure_node, "out0"});
    if (split_consumers.size() != 1)
        return err("pure body output is not split");
    split_node = split_consumers[0].inst;

    RewriteDef ooo = oooLoopRewrite();
    RewriteMatch match;
    match.binding = {{"mux", loop.mux},       {"init", loop.init},
                     {"body", pure_node},     {"split", split_node},
                     {"forkC", fork_ref->inst}, {"branch", loop.branch}};
    match.captures = {{"$f", report.body_fn},
                      {"$tags", std::to_string(options.num_tags)}};
    Result<ExprHigh> rewritten = engine.applyAt(g, ooo, match);
    if (!rewritten.ok())
        return rewritten;
    g = rewritten.take();
    snapshot("ooo-rewrite", g);

    // Restore the pure annotations the template match dropped.
    std::string new_pure;
    for (const NodeDecl& node : g.nodes()) {
        if (node.type == "pure" &&
            attrStr(node.attrs, "fn", "") == report.body_fn) {
            new_pure = node.name;
            NodeDecl* mutable_node = g.findNode(node.name);
            mutable_node->attrs["latency"] =
                std::to_string(report.body_latency);
            for (const NodeDecl& rn : pure.value().region_def.rhs.nodes())
                if (rn.type == "pure")
                    mutable_node->attrs["absorbed"] =
                        attrStr(rn.attrs, "absorbed", "");
        }
    }

    // Phase 5: replay pure generation backwards so the final circuit
    // carries the original operators inside the tagged region.
    if (options.reexpand && !new_pure.empty()) {
        auto consumers = g.consumersOf(PortRef{new_pure, "out0"});
        if (consumers.size() == 1) {
            RewriteDef reverse;
            reverse.name = "pure-expand";
            reverse.lhs.addNode("purebody", "pure",
                                g.findNode(new_pure)->attrs);
            reverse.lhs.addNode("puresplit", "split");
            reverse.lhs.connect("purebody", "out0", "puresplit", "in0");
            reverse.lhs.bindInput(0, PortRef{"purebody", "in0"});
            reverse.lhs.bindOutput(0, PortRef{"puresplit", "out0"});
            reverse.lhs.bindOutput(1, PortRef{"puresplit", "out1"});
            reverse.rhs = pure.value().region_def.lhs;

            RewriteMatch expand;
            expand.binding = {{"purebody", new_pure},
                              {"puresplit", consumers[0].inst}};
            Result<ExprHigh> expanded = engine.applyAt(g, reverse,
                                                       expand);
            if (!expanded.ok())
                return expanded.error().context("phase 5 re-expansion");
            g = expanded.take();
            snapshot("re-expansion", g);
        }
    }
    report.transformed = true;
    return g;
}

}  // namespace

Result<PipelineResult>
runOooPipeline(const ExprHigh& graph, Environment& env,
               const PipelineOptions& options)
{
    RewriteEngine engine;
    if (options.post_check)
        engine.setPostCheck(options.post_check);
    Result<bool> added = engine.addCatalog();
    if (!added.ok())
        return added.error().context("pipeline setup");

    PipelineResult result;
    result.graph = graph;
    std::vector<PipelineSnapshot>* snaps =
        options.keep_snapshots ? &result.snapshots : nullptr;
    if (snaps != nullptr)
        snaps->push_back(PipelineSnapshot{"input", graph});

    // Phase 0: the side-effect guard (section 6.2). Loop groups whose
    // bodies store to memory are refused *before* any rewriting, so
    // the circuit stays exactly DF-IO there (as GRAPHITI does on
    // bicg).
    std::set<std::string> attempted;
    {
        std::vector<LoopInfo> loops = findLoops(result.graph);
        for (const LoopGroup& group : groupLoops(result.graph, loops)) {
            if (!groupHasSideEffects(result.graph, group.loops))
                continue;
            LoopTransformReport report;
            report.header_mux = group.loops[0].mux;
            report.refusal =
                "loop body performs stores; out-of-order execution "
                "would reorder observable memory effects (refusing, as "
                "on bicg)";
            result.loops.push_back(std::move(report));
            for (const LoopInfo& loop : group.loops)
                attempted.insert(loop.mux);
        }
    }

    // Phase 1+2: combine multi-variable loops pairwise.
    for (std::size_t guard = 0; guard < 64; ++guard) {
        std::vector<LoopInfo> loops = findLoops(result.graph);
        std::vector<LoopGroup> groups = groupLoops(result.graph, loops);
        const LoopGroup* multi = nullptr;
        for (const LoopGroup& group : groups) {
            bool refused = false;
            for (const LoopInfo& loop : group.loops)
                refused |= attempted.count(loop.mux) > 0;
            if (group.loops.size() > 1 && !refused)
                multi = &group;
        }
        if (multi == nullptr)
            break;
        Result<ExprHigh> combined = combineLoopPair(
            engine, result.graph, multi->loops[0], multi->loops[1],
            multi->cond_source);
        if (!combined.ok())
            return combined.error().context("loop combining");
        result.graph = combined.take();
        if (snaps != nullptr)
            snaps->push_back(
                PipelineSnapshot{"combine", result.graph});
    }

    // Phases 3-5 per remaining loop, re-discovering loop structure
    // after every transformation (the graph changes under us).
    for (std::size_t guard = 0; guard < 64; ++guard) {
        std::vector<LoopInfo> loops = findLoops(result.graph);
        const LoopInfo* next = nullptr;
        for (const LoopInfo& loop : loops)
            if (attempted.count(loop.mux) == 0) {
                next = &loop;
                break;
            }
        if (next == nullptr)
            break;
        attempted.insert(next->mux);
        LoopTransformReport report;
        report.header_mux = next->mux;
        Result<ExprHigh> transformed = transformSingleLoop(
            engine, env, result.graph, *next, options, report, snaps);
        if (transformed.ok()) {
            result.graph = transformed.take();
        } else {
            report.transformed = false;
            report.refusal = transformed.error().message;
        }
        result.loops.push_back(std::move(report));
    }

    result.stats = engine.stats();
    result.rollbacks = engine.rollbacks();
    return result;
}

}  // namespace graphiti
