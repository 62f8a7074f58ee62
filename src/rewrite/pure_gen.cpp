#include "rewrite/pure_gen.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "graph/signatures.hpp"
#include "support/strings.hpp"

namespace graphiti {

namespace {

using eg::TermExpr;

/** Symbolic transfer of one region node: input terms -> output terms,
 * keyed by output port name. */
Result<std::map<std::string, TermExpr>>
symbolicTransfer(const NodeDecl& node,
                 const std::vector<TermExpr>& inputs)
{
    std::map<std::string, TermExpr> out;
    if (node.type == "fork") {
        int n = attrInt(node.attrs, "out", 2);
        for (int i = 0; i < n; ++i)
            out["out" + std::to_string(i)] = inputs.at(0);
        return out;
    }
    if (node.type == "join") {
        TermExpr t = inputs.back();
        for (std::size_t i = inputs.size() - 1; i-- > 0;)
            t = TermExpr::node("pair", {inputs[i], std::move(t)});
        out["out0"] = std::move(t);
        return out;
    }
    if (node.type == "split") {
        out["out0"] = TermExpr::node("fst", {inputs.at(0)});
        out["out1"] = TermExpr::node("snd", {inputs.at(0)});
        return out;
    }
    if (node.type == "operator") {
        out["out0"] = TermExpr::node("op:" + attrStr(node.attrs, "op", ""),
                                     inputs);
        return out;
    }
    if (node.type == "constant") {
        // The trigger input only gates timing; the value is static.
        out["out0"] =
            TermExpr::leaf("const:" + attrStr(node.attrs, "value", "0"));
        return out;
    }
    if (node.type == "pure") {
        out["out0"] = TermExpr::node(
            "fn:" + attrStr(node.attrs, "fn", ""), {inputs.at(0)});
        return out;
    }
    if (node.type == "load") {
        out["out0"] = TermExpr::node(
            "load:" + attrStr(node.attrs, "memory", "mem"),
            {inputs.at(0)});
        return out;
    }
    if (node.type == "buffer") {
        out["out0"] = inputs.at(0);
        return out;
    }
    if (node.type == "sink") {
        // Dead-end computation: consumed, no observable value.
        return out;
    }
    return err("pure generation cannot absorb a '" + node.type +
               "' component (node " + node.name + ")");
}

/** Latency contributed by one absorbed node. */
int
nodeLatency(const NodeDecl& node)
{
    if (node.type == "operator")
        return attrInt(node.attrs, "latency",
                       operatorLatency(attrStr(node.attrs, "op", "")));
    if (node.type == "load")
        return attrInt(node.attrs, "latency", 1);
    if (node.type == "pure")
        return attrInt(node.attrs, "latency", 0);
    return 0;
}

}  // namespace

Result<PureFn>
compileTerm(const eg::TermExpr& term, std::shared_ptr<FnRegistry> registry)
{
    if (term.op == "x")
        return PureFn([](const Value& v) { return v; });

    if (term.op == "pair") {
        Result<PureFn> a = compileTerm(term.children.at(0), registry);
        if (!a.ok())
            return a;
        Result<PureFn> b = compileTerm(term.children.at(1), registry);
        if (!b.ok())
            return b;
        return PureFn([fa = a.take(), fb = b.take()](const Value& v) {
            return Value::tuple(fa(v), fb(v));
        });
    }
    if (term.op == "fst" || term.op == "snd") {
        Result<PureFn> a = compileTerm(term.children.at(0), registry);
        if (!a.ok())
            return a;
        bool first = term.op == "fst";
        return PureFn([fa = a.take(), first](const Value& v) {
            // Keep the intermediate alive: asTuple() returns a
            // reference into it.
            Value inner = fa(v);
            return first ? inner.asTuple().at(0)
                         : inner.asTuple().at(1);
        });
    }
    if (startsWith(term.op, "op:")) {
        std::string op = term.op.substr(3);
        std::vector<PureFn> args;
        for (const eg::TermExpr& child : term.children) {
            Result<PureFn> a = compileTerm(child, registry);
            if (!a.ok())
                return a;
            args.push_back(a.take());
        }
        return PureFn([op, fn = operatorFn(op), args](const Value& v) {
            std::vector<Value> values;
            values.reserve(args.size());
            for (const PureFn& arg : args)
                values.push_back(arg(v));
            Result<Value> result =
                fn != nullptr ? fn(values) : evalOperator(op, values);
            if (!result.ok())
                throw std::runtime_error(
                    "body function diverged (as would the circuit): " +
                    result.error().message);
            return result.take();
        });
    }
    if (startsWith(term.op, "const:")) {
        Result<Value> value = parseConstant(term.op.substr(6));
        if (!value.ok())
            return value.error();
        return PureFn([c = value.take()](const Value&) { return c; });
    }
    if (startsWith(term.op, "fn:")) {
        std::string name = term.op.substr(3);
        if (!registry->has(name))
            return err("compileTerm: unregistered function " + name);
        Result<PureFn> a = compileTerm(term.children.at(0), registry);
        if (!a.ok())
            return a;
        // Weak capture: compiled bodies are stored back into the
        // registry, so a shared_ptr here would be a reference cycle
        // (leak). Lookup stays lazy — replacing the registered
        // function changes the compiled one.
        return PureFn(
            [weak = std::weak_ptr<FnRegistry>(registry), name,
             fa = a.take()](const Value& v) {
                auto reg = weak.lock();
                if (!reg)
                    throw std::runtime_error(
                        "compileTerm: registry of function '" + name +
                        "' no longer exists");
                return (*reg->find(name))(fa(v));
            });
    }
    if (startsWith(term.op, "load:")) {
        // Memory is uninterpreted at the semantics level (the cycle
        // simulator resolves loads against real arrays).
        return compileTerm(term.children.at(0), registry);
    }
    return err("compileTerm: unknown term operator " + term.op);
}

Result<PureGenResult>
generatePureBody(const ExprHigh& graph, const LoopInfo& loop,
                 Environment& env, RewriteEngine& engine)
{
    if (loop.has_side_effects)
        return err("loop body of mux " + loop.mux +
                   " performs stores; out-of-order execution would "
                   "reorder observable memory effects (refusing, as on "
                   "bicg)");

    // Locate the condition fork: driver of branch.in1, a fork that
    // also feeds init.in0.
    std::optional<PortRef> cond_driver =
        graph.driverOf(PortRef{loop.branch, "in1"});
    if (!cond_driver)
        return err("loop branch has no condition driver");
    const NodeDecl* cond_fork = graph.findNode(cond_driver->inst);
    if (cond_fork == nullptr || cond_fork->type != "fork")
        return err("loop condition is not forked to branch and init; "
                   "normalize first");
    std::optional<PortRef> init_driver =
        graph.driverOf(PortRef{loop.init, "in0"});
    if (!init_driver || init_driver->inst != cond_fork->name)
        return err("condition fork does not feed the loop init");

    // The region: the loop body minus the condition fork.
    std::set<std::string> region(loop.body.begin(), loop.body.end());
    region.erase(cond_fork->name);
    if (region.empty())
        return err("empty loop body");

    // Entry: the unique consumer of mux.out0, inside the region.
    std::vector<PortRef> entries =
        graph.consumersOf(PortRef{loop.mux, "out0"});
    if (entries.size() != 1 || region.count(entries[0].inst) == 0)
        return err("loop body is not single-entry; normalize first");
    PortRef entry = entries[0];

    // Outputs: drivers of branch.in0 (next state) and cond_fork.in0.
    std::optional<PortRef> data_out =
        graph.driverOf(PortRef{loop.branch, "in0"});
    std::optional<PortRef> cond_out =
        graph.driverOf(PortRef{cond_fork->name, "in0"});
    if (!data_out || region.count(data_out->inst) == 0)
        return err("next-state wire does not come from the loop body");
    if (!cond_out || region.count(cond_out->inst) == 0)
        return err("condition wire does not come from the loop body");

    // Symbolic evaluation in topological order.
    std::map<PortRef, TermExpr> wire_terms;
    wire_terms[PortRef{loop.mux, "out0"}] = TermExpr::leaf("x");
    std::set<std::string> pending = region;
    while (!pending.empty()) {
        bool progressed = false;
        for (auto it = pending.begin(); it != pending.end();) {
            const NodeDecl& node = *graph.findNode(*it);
            Result<Signature> sig = signatureOf(node.type, node.attrs);
            if (!sig.ok())
                return sig.error().context("pure generation");
            std::vector<TermExpr> inputs;
            bool ready = true;
            for (const std::string& port : sig.value().inputs) {
                std::optional<PortRef> driver =
                    graph.driverOf(PortRef{node.name, port});
                if (!driver)
                    return err("pure generation: body port " + node.name +
                               "." + port + " has no driver");
                auto term = wire_terms.find(*driver);
                if (term == wire_terms.end()) {
                    ready = false;
                    break;
                }
                inputs.push_back(term->second);
            }
            if (!ready) {
                ++it;
                continue;
            }
            Result<std::map<std::string, TermExpr>> outs =
                symbolicTransfer(node, inputs);
            if (!outs.ok())
                return outs.error();
            for (auto& [port, term] : outs.value())
                wire_terms[PortRef{node.name, port}] = std::move(term);
            it = pending.erase(it);
            progressed = true;
        }
        if (!progressed)
            return err("pure generation: loop body has an internal "
                       "cycle or depends on values from outside the "
                       "loop; cannot order it");
    }

    TermExpr body_term = TermExpr::node(
        "pair", {wire_terms.at(*data_out), wire_terms.at(*cond_out)});

    // Minimize with the e-graph oracle (the egg role of section 3.2).
    eg::EGraph egraph;
    eg::ClassId cls = egraph.addTerm(body_term);
    egraph.saturate(eg::pairAlgebraRules());
    Result<TermExpr> minimized = egraph.extract(cls);
    if (!minimized.ok())
        return minimized.error().context("pure generation");

    // Compile and register the body function.
    Result<PureFn> compiled =
        compileTerm(minimized.value(), env.functionsPtr());
    if (!compiled.ok())
        return compiled.error();
    std::string fn_name = env.functions().freshName("body_fn");
    env.functions().add(fn_name, compiled.take());

    // Latency: the critical path of the absorbed components.
    std::map<std::string, int> path;
    int critical = 0;
    // Topological relaxation; region is acyclic (checked above).
    bool changed = true;
    while (changed) {
        changed = false;
        for (const std::string& name : region) {
            const NodeDecl& node = *graph.findNode(name);
            Result<Signature> sig = signatureOf(node.type, node.attrs);
            int longest = 0;
            for (const std::string& port : sig.value().inputs) {
                std::optional<PortRef> driver =
                    graph.driverOf(PortRef{name, port});
                if (driver && path.count(driver->inst) > 0)
                    longest = std::max(longest, path[driver->inst]);
            }
            int total = longest + nodeLatency(node);
            if (path.find(name) == path.end() || path[name] != total) {
                path[name] = total;
                changed = true;
            }
            critical = std::max(critical, total);
        }
    }

    // Absorbed component inventory for the area model.
    std::vector<std::string> absorbed;
    for (const std::string& name : region) {
        const NodeDecl& node = *graph.findNode(name);
        std::string entry = node.type;
        if (node.type == "operator")
            entry += ":" + attrStr(node.attrs, "op", "");
        absorbed.push_back(entry);
    }
    std::sort(absorbed.begin(), absorbed.end());

    // Build the region rewrite and apply it through the engine.
    PureGenResult result;
    result.fn_name = fn_name;
    result.term = minimized.take();
    result.term_size_before = body_term.size();
    result.term_size_after = result.term.size();
    result.latency = critical;

    RewriteDef def;
    def.name = "pure-gen";
    for (const std::string& name : region) {
        const NodeDecl& node = *graph.findNode(name);
        def.lhs.addNode(node.name, node.type, node.attrs);
    }
    for (const Edge& e : graph.edges())
        if (region.count(e.src.inst) > 0 && region.count(e.dst.inst) > 0)
            def.lhs.connect(e.src, e.dst);
    def.lhs.bindInput(0, entry);
    def.lhs.bindOutput(0, *data_out);
    def.lhs.bindOutput(1, *cond_out);

    def.rhs.addNode("purebody", "pure",
                    {{"fn", fn_name},
                     {"latency", std::to_string(critical)},
                     {"absorbed", join(absorbed, ",")}});
    def.rhs.addNode("puresplit", "split");
    def.rhs.connect("purebody", "out0", "puresplit", "in0");
    def.rhs.bindInput(0, PortRef{"purebody", "in0"});
    def.rhs.bindOutput(0, PortRef{"puresplit", "out0"});
    def.rhs.bindOutput(1, PortRef{"puresplit", "out1"});

    Result<bool> valid = def.validate();
    if (!valid.ok())
        return valid.error().context(
            "pure generation: the loop body is not closed (it has "
            "connections besides state-in/state-out/condition)");

    RewriteMatch match;
    for (const std::string& name : region)
        match.binding[name] = name;
    Result<ExprHigh> rewritten = engine.applyAt(graph, def, match);
    if (!rewritten.ok())
        return rewritten.error().context("pure generation");

    result.graph = rewritten.take();
    result.region_def = std::move(def);
    result.region_match = std::move(match);

    for (const NodeDecl& node : result.graph.nodes()) {
        if (node.type == "pure" &&
            attrStr(node.attrs, "fn", "") == fn_name) {
            result.pure_node = node.name;
            auto consumers =
                result.graph.consumersOf(PortRef{node.name, "out0"});
            if (consumers.size() == 1)
                result.split_node = consumers[0].inst;
        }
    }
    if (result.pure_node.empty() || result.split_node.empty())
        return err("pure generation: inserted nodes not found");
    return result;
}

}  // namespace graphiti
