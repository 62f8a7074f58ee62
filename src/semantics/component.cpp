#include "semantics/component.hpp"

#include "graph/signatures.hpp"

namespace graphiti {

bool
tagsCompatible(const std::vector<const Token*>& tokens,
               std::optional<Tag>& common)
{
    common.reset();
    for (const Token* t : tokens) {
        if (!t->tag)
            continue;
        if (common && *common != *t->tag)
            return false;
        common = t->tag;
    }
    return true;
}

namespace {

CompState
emptyState(std::size_t num_queues, std::size_t num_regs = 0)
{
    CompState s;
    s.queues.resize(num_queues);
    s.regs.resize(num_regs, 0);
    return s;
}

/**
 * Fork: one queue per output; an input enqueues the token on all of
 * them (the paper's fork.in0 with enq applied to every list).
 */
class ForkComponent : public Component
{
  public:
    ForkComponent(int num_outputs, std::size_t capacity)
        : Component(capacity), num_outputs_(num_outputs)
    {
    }

    std::string name() const override { return "fork"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return num_outputs_; }
    CompState initialState() const override
    {
        return emptyState(num_outputs_);
    }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        for (int q = 0; q < num_outputs_; ++q)
            if (!roomFor(state, q))
                return {};
        CompState next = state;
        for (int q = 0; q < num_outputs_; ++q)
            next.enq(q, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        if (state.empty(port))
            return {};
        CompState next = state;
        Token out = next.first(port);
        next.deq(port);
        return {{std::move(out), std::move(next)}};
    }

  private:
    int num_outputs_;
};

/**
 * Join: synchronizes its inputs into a (right-nested) tuple. Tags of
 * the joined tokens must agree.
 */
class JoinComponent : public Component
{
  public:
    JoinComponent(int num_inputs, std::size_t capacity)
        : Component(capacity), num_inputs_(num_inputs)
    {
    }

    std::string name() const override { return "join"; }
    int numInputs() const override { return num_inputs_; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override
    {
        return emptyState(num_inputs_);
    }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        std::vector<const Token*> fronts;
        for (int q = 0; q < num_inputs_; ++q) {
            if (state.empty(q))
                return {};
            fronts.push_back(&state.first(q));
        }
        std::optional<Tag> tag;
        if (!tagsCompatible(fronts, tag))
            return {};
        // Right-nested pairing keeps the Split/Join algebra a pure
        // pair algebra: join(a, b, c) = (a, (b, c)).
        Value v = fronts.back()->value;
        for (int q = num_inputs_ - 2; q >= 0; --q)
            v = Value::tuple(fronts[q]->value, std::move(v));
        CompState next = state;
        for (int q = 0; q < num_inputs_; ++q)
            next.deq(q);
        Token out(std::move(v));
        out.tag = tag;
        return {{std::move(out), std::move(next)}};
    }

  private:
    int num_inputs_;
};

/**
 * Split: takes a pair apart; an internal transition stages the two
 * halves so the outputs can be consumed independently.
 */
class SplitComponent : public Component
{
  public:
    explicit SplitComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "split"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 2; }
    CompState initialState() const override { return emptyState(3); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0) || !token.value.isTuple() ||
            token.value.asTuple().size() != 2)
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<CompState>
    internalSteps(const CompState& state) const override
    {
        if (state.empty(0) || !roomFor(state, 1) || !roomFor(state, 2))
            return {};
        const Token& t = state.first(0);
        const ValueTuple& parts = t.value.asTuple();
        CompState next = state;
        Token left(parts[0]);
        Token right(parts[1]);
        left.tag = t.tag;
        right.tag = t.tag;
        next.deq(0);
        next.enq(1, std::move(left));
        next.enq(2, std::move(right));
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        int q = port + 1;
        if (state.empty(q))
            return {};
        CompState next = state;
        Token out = next.first(q);
        next.deq(q);
        return {{std::move(out), std::move(next)}};
    }
};

/**
 * Branch: passes the data token to out0 when the condition is true,
 * out1 when false (Table 1).
 */
class BranchComponent : public Component
{
  public:
    explicit BranchComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "branch"; }
    int numInputs() const override { return 2; }
    int numOutputs() const override { return 2; }
    CompState initialState() const override { return emptyState(2); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        if (state.empty(0) || state.empty(1))
            return {};
        const Token& data = state.first(0);
        const Token& cond = state.first(1);
        std::optional<Tag> tag;
        if (!tagsCompatible({&data, &cond}, tag))
            return {};
        bool want_true = port == 0;
        if (cond.value.asBool() != want_true)
            return {};
        CompState next = state;
        Token out = data;
        out.tag = tag;
        next.deq(0);
        next.deq(1);
        return {{std::move(out), std::move(next)}};
    }
};

/**
 * Mux: emits the in1 (true) or in2 (false) token selected by the
 * condition on in0 (Table 1). Queues: 0 = condition, 1 = true data,
 * 2 = false data.
 */
class MuxComponent : public Component
{
  public:
    explicit MuxComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "mux"; }
    int numInputs() const override { return 3; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(3); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0))
            return {};
        const Token& cond = state.first(0);
        int sel = cond.value.asBool() ? 1 : 2;
        if (state.empty(sel))
            return {};
        CompState next = state;
        Token out = next.first(sel);
        next.deq(0);
        next.deq(sel);
        return {{std::move(out), std::move(next)}};
    }
};

/**
 * Merge: emits the first available token from either input; when both
 * queues hold tokens the choice is nondeterministic (the *local
 * nondeterminism* of section 1). Queue 2 stages nothing; both orders
 * are returned as distinct successors.
 */
class MergeComponent : public Component
{
  public:
    explicit MergeComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "merge"; }
    int numInputs() const override { return 2; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(2); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        std::vector<std::pair<Token, CompState>> out;
        for (int q = 0; q < 2; ++q) {
            if (state.empty(q))
                continue;
            CompState next = state;
            Token t = next.first(q);
            next.deq(q);
            out.emplace_back(std::move(t), std::move(next));
        }
        return out;
    }
};

/**
 * Init: produces one initial boolean token, then behaves like a
 * queue (Table 1). regs[0] records whether the initial token has been
 * produced.
 */
class InitComponent : public Component
{
  public:
    InitComponent(bool initial_value, std::size_t capacity)
        : Component(capacity), initial_value_(initial_value)
    {
    }

    std::string name() const override { return "init"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(1, 1); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0))
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.regs[0] == 0) {
            CompState next = state;
            next.regs[0] = 1;
            return {{Token(Value(initial_value_)), std::move(next)}};
        }
        if (state.empty(0))
            return {};
        CompState next = state;
        Token out = next.first(0);
        next.deq(0);
        return {{std::move(out), std::move(next)}};
    }

  private:
    bool initial_value_;
};

/** Buffer: a plain FIFO queue. */
class BufferComponent : public Component
{
  public:
    explicit BufferComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "buffer"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(1); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0))
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0))
            return {};
        CompState next = state;
        Token out = next.first(0);
        next.deq(0);
        return {{std::move(out), std::move(next)}};
    }
};

/** Sink: consumes and discards tokens; stateless. */
class SinkComponent : public Component
{
  public:
    explicit SinkComponent(std::size_t capacity) : Component(capacity) {}

    std::string name() const override { return "sink"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 0; }
    CompState initialState() const override { return emptyState(0); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        (void)token;
        return {state};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)state;
        (void)port;
        return {};
    }
};

/** Source: an infinite supply of control tokens; stateless. */
class SourceComponent : public Component
{
  public:
    SourceComponent() : Component(kUnbounded) {}

    std::string name() const override { return "source"; }
    int numInputs() const override { return 0; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(0); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)state;
        (void)port;
        (void)token;
        return {};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        return {{Token(Value()), state}};
    }
};

/** Constant: each control token on in0 releases one copy of value. */
class ConstantComponent : public Component
{
  public:
    ConstantComponent(Value value, std::size_t capacity)
        : Component(capacity), value_(std::move(value))
    {
    }

    std::string name() const override { return "constant"; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(1); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0))
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0))
            return {};
        CompState next = state;
        Token out(value_);
        out.tag = next.first(0).tag;
        next.deq(0);
        return {{std::move(out), std::move(next)}};
    }

  private:
    Value value_;
};

/**
 * Operator: applies its op at the output transition, exactly like the
 * paper's mod.out0 relation; inputs queue independently.
 */
class OperatorComponent : public Component
{
  public:
    OperatorComponent(std::string op, std::size_t capacity)
        : Component(capacity), op_(std::move(op)),
          arity_(operatorArity(op_)), fn_(operatorFn(op_))
    {
    }

    std::string name() const override { return "operator:" + op_; }
    int numInputs() const override { return arity_; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(arity_); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        std::vector<const Token*> fronts;
        std::vector<Value> args;
        for (int q = 0; q < arity_; ++q) {
            if (state.empty(q))
                return {};
            fronts.push_back(&state.first(q));
            args.push_back(state.first(q).value);
        }
        std::optional<Tag> tag;
        if (!tagsCompatible(fronts, tag))
            return {};
        Result<Value> result =
            fn_ != nullptr ? fn_(args) : evalOperator(op_, args);
        if (!result.ok())
            return {};  // e.g. division by zero: the operator is stuck
        CompState next = state;
        for (int q = 0; q < arity_; ++q)
            next.deq(q);
        Token out(result.take());
        out.tag = tag;
        return {{std::move(out), std::move(next)}};
    }

  private:
    std::string op_;
    int arity_;
    OperatorFn fn_;
};

/** Pure: applies a registered unary function; tags ride along. */
class PureComponent : public Component
{
  public:
    PureComponent(std::string fn_name, PureFn fn, std::size_t capacity)
        : Component(capacity), fn_name_(std::move(fn_name)),
          fn_(std::move(fn))
    {
    }

    std::string name() const override { return "pure:" + fn_name_; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(1); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0))
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0))
            return {};
        CompState next = state;
        Token out(fn_(next.first(0).value));
        out.tag = next.first(0).tag;
        next.deq(0);
        return {{std::move(out), std::move(next)}};
    }

  private:
    std::string fn_name_;
    PureFn fn_;
};

/**
 * Tagger/Untagger: the combined reorder component of Table 1.
 *
 * Queues: 0 = fresh (untagged) inputs, 1 = completions returned from
 * the loop exit, 2 = tagged tokens staged for the loop entry.
 * regs[0] = number of tags allocated so far, regs[1] = number
 * committed. Tags are reused round-robin; in-flight count is bounded
 * by num_tags. out1 emits completions strictly in allocation order,
 * which is the paper's *in-order* invariant (section 5.2).
 */
class TaggerComponent : public Component
{
  public:
    TaggerComponent(int num_tags, std::size_t capacity)
        : Component(capacity), num_tags_(num_tags)
    {
    }

    std::string name() const override { return "tagger"; }
    int numInputs() const override { return 2; }
    int numOutputs() const override { return 2; }
    CompState initialState() const override { return emptyState(3, 2); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        if (port == 1 && !token.tag)
            return {};  // returning tokens must carry their tag
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<CompState>
    internalSteps(const CompState& state) const override
    {
        // Allocate a tag for the oldest fresh input, if one is free.
        if (state.empty(0) || !roomFor(state, 2))
            return {};
        if (state.regs[0] - state.regs[1] >= num_tags_)
            return {};
        CompState next = state;
        Token tagged = next.first(0);
        tagged.tag = static_cast<Tag>(next.regs[0] % num_tags_);
        next.deq(0);
        next.enq(2, std::move(tagged));
        next.regs[0] += 1;
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        if (port == 0) {
            if (state.empty(2))
                return {};
            CompState next = state;
            Token out = next.first(2);
            next.deq(2);
            return {{std::move(out), std::move(next)}};
        }
        // out1: the completion carrying the oldest outstanding tag.
        if (state.regs[1] >= state.regs[0])
            return {};
        Tag wanted = static_cast<Tag>(state.regs[1] % num_tags_);
        for (std::size_t i = 0; i < state.queues[1].size(); ++i) {
            if (state.queues[1][i].tag == wanted) {
                CompState next = state;
                Token out = next.queues[1][i];
                out.tag.reset();
                next.queues[1].eraseAt(i);
                next.regs[1] += 1;
                return {{std::move(out), std::move(next)}};
            }
        }
        return {};
    }

  private:
    int num_tags_;
};

/** Load: a read-only memory lookup, functionally a pure map. */
class LoadComponent : public Component
{
  public:
    LoadComponent(std::string memory, std::size_t capacity)
        : Component(capacity), memory_(std::move(memory))
    {
    }

    std::string name() const override { return "load:" + memory_; }
    int numInputs() const override { return 1; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(1); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        (void)port;
        if (!roomFor(state, 0))
            return {};
        CompState next = state;
        next.enq(0, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0))
            return {};
        // At the semantics level memory is immutable; the lookup is
        // the identity on the address so refinement checks treat the
        // load as an uninterpreted pure map. The cycle simulator
        // (sim/) interprets loads against real arrays.
        CompState next = state;
        Token out = next.first(0);
        next.deq(0);
        return {{std::move(out), std::move(next)}};
    }

  private:
    std::string memory_;
};

/**
 * Store: consumes (address, data) and emits the pair as its done
 * token, making the memory side effect externally observable. This is
 * what makes the out-of-order rewrite *unsound* on loops with stores
 * (the bicg case in section 6.2): reordered stores produce a
 * different observable sequence.
 */
class StoreComponent : public Component
{
  public:
    StoreComponent(std::string memory, std::size_t capacity)
        : Component(capacity), memory_(std::move(memory))
    {
    }

    std::string name() const override { return "store:" + memory_; }
    int numInputs() const override { return 2; }
    int numOutputs() const override { return 1; }
    CompState initialState() const override { return emptyState(2); }

    std::vector<CompState>
    acceptInput(const CompState& state, int port,
                const Token& token) const override
    {
        if (!roomFor(state, port))
            return {};
        CompState next = state;
        next.enq(port, token);
        return {std::move(next)};
    }

    std::vector<std::pair<Token, CompState>>
    emitOutput(const CompState& state, int port) const override
    {
        (void)port;
        if (state.empty(0) || state.empty(1))
            return {};
        const Token& addr = state.first(0);
        const Token& data = state.first(1);
        std::optional<Tag> tag;
        if (!tagsCompatible({&addr, &data}, tag))
            return {};
        CompState next = state;
        Token out(Value::tuple(addr.value, data.value));
        out.tag = tag;
        next.deq(0);
        next.deq(1);
        return {{std::move(out), std::move(next)}};
    }

  private:
    std::string memory_;
};

}  // namespace

ComponentPtr
makeFork(int num_outputs, std::size_t capacity)
{
    return std::make_shared<ForkComponent>(num_outputs, capacity);
}

ComponentPtr
makeJoin(int num_inputs, std::size_t capacity)
{
    return std::make_shared<JoinComponent>(num_inputs, capacity);
}

ComponentPtr
makeSplit(std::size_t capacity)
{
    return std::make_shared<SplitComponent>(capacity);
}

ComponentPtr
makeBranch(std::size_t capacity)
{
    return std::make_shared<BranchComponent>(capacity);
}

ComponentPtr
makeMux(std::size_t capacity)
{
    return std::make_shared<MuxComponent>(capacity);
}

ComponentPtr
makeMerge(std::size_t capacity)
{
    return std::make_shared<MergeComponent>(capacity);
}

ComponentPtr
makeInit(bool initial_value, std::size_t capacity)
{
    return std::make_shared<InitComponent>(initial_value, capacity);
}

ComponentPtr
makeBuffer(std::size_t capacity)
{
    return std::make_shared<BufferComponent>(capacity);
}

ComponentPtr
makeSink(std::size_t capacity)
{
    return std::make_shared<SinkComponent>(capacity);
}

ComponentPtr
makeSource()
{
    return std::make_shared<SourceComponent>();
}

ComponentPtr
makeConstant(Value value, std::size_t capacity)
{
    return std::make_shared<ConstantComponent>(std::move(value), capacity);
}

ComponentPtr
makeOperator(std::string op, std::size_t capacity)
{
    return std::make_shared<OperatorComponent>(std::move(op), capacity);
}

ComponentPtr
makePure(std::string fn_name, PureFn fn, std::size_t capacity)
{
    return std::make_shared<PureComponent>(std::move(fn_name),
                                           std::move(fn), capacity);
}

ComponentPtr
makeTagger(int num_tags, std::size_t capacity)
{
    return std::make_shared<TaggerComponent>(num_tags, capacity);
}

ComponentPtr
makeLoad(std::string memory, std::size_t capacity)
{
    return std::make_shared<LoadComponent>(std::move(memory), capacity);
}

ComponentPtr
makeStore(std::string memory, std::size_t capacity)
{
    return std::make_shared<StoreComponent>(std::move(memory), capacity);
}

}  // namespace graphiti
