#include "rewrite/catalog.hpp"

#include <set>
#include <stdexcept>

namespace graphiti::catalog {

RewriteDef
combineMux()
{
    RewriteDef def;
    def.name = "combine-mux";
    def.verified = true;

    // lhs: forkC duplicates one condition to two muxes.
    def.lhs.addNode("forkC", "fork", {{"out", "2"}});
    def.lhs.addNode("muxA", "mux");
    def.lhs.addNode("muxB", "mux");
    def.lhs.connect("forkC", "out0", "muxA", "in0");
    def.lhs.connect("forkC", "out1", "muxB", "in0");
    def.lhs.bindInput(0, PortRef{"forkC", "in0"});  // condition
    def.lhs.bindInput(1, PortRef{"muxA", "in1"});   // A true
    def.lhs.bindInput(2, PortRef{"muxA", "in2"});   // A false
    def.lhs.bindInput(3, PortRef{"muxB", "in1"});   // B true
    def.lhs.bindInput(4, PortRef{"muxB", "in2"});   // B false
    def.lhs.bindOutput(0, PortRef{"muxA", "out0"});
    def.lhs.bindOutput(1, PortRef{"muxB", "out0"});

    // rhs: join the data pairs, select once, split the result.
    def.rhs.addNode("joinT", "join", {{"in", "2"}});
    def.rhs.addNode("joinF", "join", {{"in", "2"}});
    def.rhs.addNode("mux", "mux");
    def.rhs.addNode("split", "split");
    def.rhs.connect("joinT", "out0", "mux", "in1");
    def.rhs.connect("joinF", "out0", "mux", "in2");
    def.rhs.connect("mux", "out0", "split", "in0");
    def.rhs.bindInput(0, PortRef{"mux", "in0"});
    def.rhs.bindInput(1, PortRef{"joinT", "in0"});
    def.rhs.bindInput(2, PortRef{"joinF", "in0"});
    def.rhs.bindInput(3, PortRef{"joinT", "in1"});
    def.rhs.bindInput(4, PortRef{"joinF", "in1"});
    def.rhs.bindOutput(0, PortRef{"split", "out0"});
    def.rhs.bindOutput(1, PortRef{"split", "out1"});
    return def;
}

RewriteDef
combineBranch()
{
    RewriteDef def;
    def.name = "combine-branch";
    def.verified = true;

    def.lhs.addNode("forkC", "fork", {{"out", "2"}});
    def.lhs.addNode("brA", "branch");
    def.lhs.addNode("brB", "branch");
    def.lhs.connect("forkC", "out0", "brA", "in1");
    def.lhs.connect("forkC", "out1", "brB", "in1");
    def.lhs.bindInput(0, PortRef{"forkC", "in0"});  // condition
    def.lhs.bindInput(1, PortRef{"brA", "in0"});    // A data
    def.lhs.bindInput(2, PortRef{"brB", "in0"});    // B data
    def.lhs.bindOutput(0, PortRef{"brA", "out0"});  // A true
    def.lhs.bindOutput(1, PortRef{"brA", "out1"});  // A false
    def.lhs.bindOutput(2, PortRef{"brB", "out0"});  // B true
    def.lhs.bindOutput(3, PortRef{"brB", "out1"});  // B false

    def.rhs.addNode("join", "join", {{"in", "2"}});
    def.rhs.addNode("branch", "branch");
    def.rhs.addNode("splitT", "split");
    def.rhs.addNode("splitF", "split");
    def.rhs.connect("join", "out0", "branch", "in0");
    def.rhs.connect("branch", "out0", "splitT", "in0");
    def.rhs.connect("branch", "out1", "splitF", "in0");
    def.rhs.bindInput(0, PortRef{"branch", "in1"});
    def.rhs.bindInput(1, PortRef{"join", "in0"});
    def.rhs.bindInput(2, PortRef{"join", "in1"});
    def.rhs.bindOutput(0, PortRef{"splitT", "out0"});
    def.rhs.bindOutput(1, PortRef{"splitF", "out0"});
    def.rhs.bindOutput(2, PortRef{"splitT", "out1"});
    def.rhs.bindOutput(3, PortRef{"splitF", "out1"});
    return def;
}

RewriteDef
combineInit()
{
    RewriteDef def;
    def.name = "combine-init";
    def.verified = true;

    def.lhs.addNode("forkC", "fork", {{"out", "2"}});
    def.lhs.addNode("initA", "init", {{"value", "$v"}});
    def.lhs.addNode("initB", "init", {{"value", "$v"}});
    def.lhs.connect("forkC", "out0", "initA", "in0");
    def.lhs.connect("forkC", "out1", "initB", "in0");
    def.lhs.bindInput(0, PortRef{"forkC", "in0"});
    def.lhs.bindOutput(0, PortRef{"initA", "out0"});
    def.lhs.bindOutput(1, PortRef{"initB", "out0"});

    def.rhs.addNode("init", "init", {{"value", "$v"}});
    def.rhs.addNode("fork", "fork", {{"out", "2"}});
    def.rhs.connect("init", "out0", "fork", "in0");
    def.rhs.bindInput(0, PortRef{"init", "in0"});
    def.rhs.bindOutput(0, PortRef{"fork", "out0"});
    def.rhs.bindOutput(1, PortRef{"fork", "out1"});
    return def;
}

RewriteDef
splitJoinElim()
{
    RewriteDef def;
    def.name = "split-join-elim";
    def.lhs.addNode("split", "split");
    def.lhs.addNode("join", "join", {{"in", "2"}});
    def.lhs.connect("split", "out0", "join", "in0");
    def.lhs.connect("split", "out1", "join", "in1");
    def.lhs.bindInput(0, PortRef{"split", "in0"});
    def.lhs.bindOutput(0, PortRef{"join", "out0"});
    def.passthrough = {{0, 0}};
    return def;
}

RewriteDef
joinSplitElim()
{
    RewriteDef def;
    def.name = "join-split-elim";
    def.lhs.addNode("join", "join", {{"in", "2"}});
    def.lhs.addNode("split", "split");
    def.lhs.connect("join", "out0", "split", "in0");
    def.lhs.bindInput(0, PortRef{"join", "in0"});
    def.lhs.bindInput(1, PortRef{"join", "in1"});
    def.lhs.bindOutput(0, PortRef{"split", "out0"});
    def.lhs.bindOutput(1, PortRef{"split", "out1"});
    def.passthrough = {{0, 0}, {1, 1}};
    return def;
}

RewriteDef
forkSinkElim0()
{
    RewriteDef def;
    def.name = "fork-sink-elim0";
    def.lhs.addNode("fork", "fork", {{"out", "2"}});
    def.lhs.addNode("sink", "sink");
    def.lhs.connect("fork", "out0", "sink", "in0");
    def.lhs.bindInput(0, PortRef{"fork", "in0"});
    def.lhs.bindOutput(0, PortRef{"fork", "out1"});
    def.passthrough = {{0, 0}};
    return def;
}

RewriteDef
forkSinkElim1()
{
    RewriteDef def;
    def.name = "fork-sink-elim1";
    def.lhs.addNode("fork", "fork", {{"out", "2"}});
    def.lhs.addNode("sink", "sink");
    def.lhs.connect("fork", "out1", "sink", "in0");
    def.lhs.bindInput(0, PortRef{"fork", "in0"});
    def.lhs.bindOutput(0, PortRef{"fork", "out0"});
    def.passthrough = {{0, 0}};
    return def;
}

RewriteDef
bufferElim()
{
    RewriteDef def;
    def.name = "buffer-elim";
    def.lhs.addNode("buffer", "buffer");
    def.lhs.bindInput(0, PortRef{"buffer", "in0"});
    def.lhs.bindOutput(0, PortRef{"buffer", "out0"});
    def.passthrough = {{0, 0}};
    return def;
}

RewriteDef
forkAssocLeft()
{
    RewriteDef def;
    def.name = "fork-assoc-left";
    def.verified = true;

    // lhs: f1 -> (a, f2 -> (b, c))
    def.lhs.addNode("f1", "fork", {{"out", "2"}});
    def.lhs.addNode("f2", "fork", {{"out", "2"}});
    def.lhs.connect("f1", "out1", "f2", "in0");
    def.lhs.bindInput(0, PortRef{"f1", "in0"});
    def.lhs.bindOutput(0, PortRef{"f1", "out0"});  // a
    def.lhs.bindOutput(1, PortRef{"f2", "out0"});  // b
    def.lhs.bindOutput(2, PortRef{"f2", "out1"});  // c

    // rhs: g1 -> (g2 -> (a, b), c)
    def.rhs.addNode("g1", "fork", {{"out", "2"}});
    def.rhs.addNode("g2", "fork", {{"out", "2"}});
    def.rhs.connect("g1", "out0", "g2", "in0");
    def.rhs.bindInput(0, PortRef{"g1", "in0"});
    def.rhs.bindOutput(0, PortRef{"g2", "out0"});  // a
    def.rhs.bindOutput(1, PortRef{"g2", "out1"});  // b
    def.rhs.bindOutput(2, PortRef{"g1", "out1"});  // c
    return def;
}

RewriteDef
forkAssocRight()
{
    RewriteDef left = forkAssocLeft();
    RewriteDef def;
    def.name = "fork-assoc-right";
    def.verified = true;
    def.lhs = left.rhs;
    def.rhs = left.lhs;
    return def;
}

RewriteDef
forkSwap()
{
    RewriteDef def;
    def.name = "fork-swap";
    def.verified = true;
    def.lhs.addNode("f", "fork", {{"out", "2"}});
    def.lhs.bindInput(0, PortRef{"f", "in0"});
    def.lhs.bindOutput(0, PortRef{"f", "out0"});
    def.lhs.bindOutput(1, PortRef{"f", "out1"});
    def.rhs.addNode("g", "fork", {{"out", "2"}});
    def.rhs.bindInput(0, PortRef{"g", "in0"});
    def.rhs.bindOutput(0, PortRef{"g", "out1"});
    def.rhs.bindOutput(1, PortRef{"g", "out0"});
    return def;
}

RewriteDef
forkSplit(int arity)
{
    RewriteDef def;
    def.name = "fork-split-" + std::to_string(arity);
    def.verified = true;

    def.lhs.addNode("f", "fork", {{"out", std::to_string(arity)}});
    def.lhs.bindInput(0, PortRef{"f", "in0"});
    for (int i = 0; i < arity; ++i)
        def.lhs.bindOutput(i, PortRef{"f", "out" + std::to_string(i)});

    def.rhs.addNode("head", "fork", {{"out", "2"}});
    def.rhs.addNode("tail", "fork",
                    {{"out", std::to_string(arity - 1)}});
    def.rhs.connect("head", "out1", "tail", "in0");
    def.rhs.bindInput(0, PortRef{"head", "in0"});
    def.rhs.bindOutput(0, PortRef{"head", "out0"});
    for (int i = 1; i < arity; ++i)
        def.rhs.bindOutput(i,
                           PortRef{"tail", "out" + std::to_string(i - 1)});
    return def;
}

RewriteDef
forkToPureDup()
{
    RewriteDef def;
    def.name = "fork-to-pure-dup";
    def.verified = true;
    def.lhs.addNode("f", "fork", {{"out", "2"}});
    def.lhs.bindInput(0, PortRef{"f", "in0"});
    def.lhs.bindOutput(0, PortRef{"f", "out0"});
    def.lhs.bindOutput(1, PortRef{"f", "out1"});
    def.rhs.addNode("dup", "pure", {{"fn", "dup"}});
    def.rhs.addNode("split", "split");
    def.rhs.connect("dup", "out0", "split", "in0");
    def.rhs.bindInput(0, PortRef{"dup", "in0"});
    def.rhs.bindOutput(0, PortRef{"split", "out0"});
    def.rhs.bindOutput(1, PortRef{"split", "out1"});
    return def;
}

RewriteDef
splitSink0()
{
    RewriteDef def;
    def.name = "split-sink0";
    def.verified = true;
    def.lhs.addNode("split", "split");
    def.lhs.addNode("sink", "sink");
    def.lhs.connect("split", "out0", "sink", "in0");
    def.lhs.bindInput(0, PortRef{"split", "in0"});
    def.lhs.bindOutput(0, PortRef{"split", "out1"});
    def.rhs.addNode("snd", "pure", {{"fn", "snd"}});
    def.rhs.bindInput(0, PortRef{"snd", "in0"});
    def.rhs.bindOutput(0, PortRef{"snd", "out0"});
    return def;
}

RewriteDef
splitSink1()
{
    RewriteDef def;
    def.name = "split-sink1";
    def.verified = true;
    def.lhs.addNode("split", "split");
    def.lhs.addNode("sink", "sink");
    def.lhs.connect("split", "out1", "sink", "in0");
    def.lhs.bindInput(0, PortRef{"split", "in0"});
    def.lhs.bindOutput(0, PortRef{"split", "out0"});
    def.rhs.addNode("fst", "pure", {{"fn", "fst"}});
    def.rhs.bindInput(0, PortRef{"fst", "in0"});
    def.rhs.bindOutput(0, PortRef{"fst", "out0"});
    return def;
}

RewriteDef
mergeComm()
{
    RewriteDef def;
    def.name = "merge-comm";
    def.verified = true;
    def.lhs.addNode("m", "merge");
    def.lhs.bindInput(0, PortRef{"m", "in0"});
    def.lhs.bindInput(1, PortRef{"m", "in1"});
    def.lhs.bindOutput(0, PortRef{"m", "out0"});
    def.rhs.addNode("n", "merge");
    def.rhs.bindInput(0, PortRef{"n", "in1"});
    def.rhs.bindInput(1, PortRef{"n", "in0"});
    def.rhs.bindOutput(0, PortRef{"n", "out0"});
    return def;
}

RewriteDef
joinFuse()
{
    RewriteDef def;
    def.name = "join-fuse";
    def.verified = true;
    // lhs: join2(a, join2(b, c)) — right nesting matches join3.
    def.lhs.addNode("inner", "join", {{"in", "2"}});
    def.lhs.addNode("outer", "join", {{"in", "2"}});
    def.lhs.connect("inner", "out0", "outer", "in1");
    def.lhs.bindInput(0, PortRef{"outer", "in0"});
    def.lhs.bindInput(1, PortRef{"inner", "in0"});
    def.lhs.bindInput(2, PortRef{"inner", "in1"});
    def.lhs.bindOutput(0, PortRef{"outer", "out0"});
    def.rhs.addNode("join3", "join", {{"in", "3"}});
    def.rhs.bindInput(0, PortRef{"join3", "in0"});
    def.rhs.bindInput(1, PortRef{"join3", "in1"});
    def.rhs.bindInput(2, PortRef{"join3", "in2"});
    def.rhs.bindOutput(0, PortRef{"join3", "out0"});
    return def;
}

RewriteDef
joinUnfuse()
{
    RewriteDef fuse = joinFuse();
    RewriteDef def;
    def.name = "join-unfuse";
    def.verified = true;
    def.lhs = fuse.rhs;
    def.rhs = fuse.lhs;
    return def;
}

RewriteDef
bufferDeepen()
{
    RewriteDef def;
    def.name = "buffer-deepen";
    def.verified = true;
    def.lhs.addNode("b", "buffer");
    def.lhs.bindInput(0, PortRef{"b", "in0"});
    def.lhs.bindOutput(0, PortRef{"b", "out0"});
    def.rhs.addNode("b1", "buffer");
    def.rhs.addNode("b2", "buffer");
    def.rhs.connect("b1", "out0", "b2", "in0");
    def.rhs.bindInput(0, PortRef{"b1", "in0"});
    def.rhs.bindOutput(0, PortRef{"b2", "out0"});
    return def;
}

std::vector<RewriteDef>
allRewrites()
{
    std::vector<RewriteDef> out = {
        combineMux(),     combineBranch(),  combineInit(),
        splitJoinElim(),  joinSplitElim(),  forkSinkElim0(),
        forkSinkElim1(),  bufferElim(),     forkAssocLeft(),
        forkAssocRight(), forkSwap(),       forkToPureDup(),
        splitSink0(),     splitSink1(),     mergeComm(),
        joinFuse(),       joinUnfuse(),     bufferDeepen(),
    };
    for (int arity = 3; arity <= 8; ++arity)
        out.push_back(forkSplit(arity));
    return out;
}

const std::vector<RewriteDef>&
validatedRewrites()
{
    static const std::vector<RewriteDef> rules = [] {
        std::vector<RewriteDef> out = allRewrites();
        std::set<std::string> names;
        for (const RewriteDef& def : out) {
            Result<bool> valid = def.validate();
            if (!valid.ok())
                throw std::logic_error("catalog: " + valid.error().message);
            if (!names.insert(def.name).second)
                throw std::logic_error("catalog: duplicate rule name: " +
                                       def.name);
        }
        return out;
    }();
    return rules;
}

}  // namespace graphiti::catalog
