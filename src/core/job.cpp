#include "core/job.hpp"

#include "dot/dot.hpp"
#include "guard/validator.hpp"
#include "sim/sim.hpp"

namespace graphiti {

namespace json = obs::json;

obs::json::Value
compileOptionsToJson(const CompileOptions& options)
{
    json::Value out{json::Object{}};
    out.set("num_tags", options.num_tags);
    out.set("reexpand", options.reexpand);
    out.set("validate", options.validate);
    out.set("governed_verify", options.governed_verify);
    out.set("verify_cache", options.verify_cache);
    json::Value budget{json::Object{}};
    budget.set("max_states", options.verify_budget.max_states);
    budget.set("partial_max_states",
               options.verify_budget.partial_max_states);
    budget.set("input_budget", options.verify_budget.input_budget);
    budget.set("trace_walks", options.verify_budget.trace_walks);
    budget.set("trace_max_steps", options.verify_budget.trace.max_steps);
    budget.set("trace_max_inputs",
               options.verify_budget.trace.max_inputs);
    budget.set("seed", options.verify_budget.seed);
    out.set("budget", std::move(budget));
    return out;
}

namespace {

Result<std::size_t>
sizeField(const json::Value& v, const char* key, std::size_t fallback)
{
    const json::Value* f = v.find(key);
    if (f == nullptr)
        return fallback;
    Result<std::uint64_t> n = json::exactCount(*f);
    if (!n.ok())
        return n.error().context(std::string("field \"") + key + "\"");
    return static_cast<std::size_t>(n.value());
}

Result<bool>
boolField(const json::Value& v, const char* key, bool fallback)
{
    const json::Value* f = v.find(key);
    if (f == nullptr)
        return fallback;
    if (!f->isBool())
        return err(std::string("field \"") + key +
                   "\" must be a boolean");
    return f->asBool();
}

}  // namespace

Result<CompileOptions>
compileOptionsFromJson(const obs::json::Value& v)
{
    CompileOptions options;
    if (v.isNull())
        return options;
    if (!v.isObject())
        return err("options must be a JSON object");

    Result<std::size_t> num_tags = sizeField(v, "num_tags", 8);
    if (!num_tags.ok())
        return num_tags.error().context("options");
    options.num_tags = static_cast<int>(num_tags.value());

    Result<bool> reexpand = boolField(v, "reexpand", options.reexpand);
    Result<bool> validate = boolField(v, "validate", options.validate);
    Result<bool> governed =
        boolField(v, "governed_verify", options.governed_verify);
    Result<bool> cache =
        boolField(v, "verify_cache", options.verify_cache);
    for (const Result<bool>* r : {&reexpand, &validate, &governed, &cache})
        if (!r->ok())
            return r->error().context("options");
    options.reexpand = reexpand.value();
    options.validate = validate.value();
    options.governed_verify = governed.value();
    options.verify_cache = cache.value();

    const json::Value* budget = v.find("budget");
    if (budget != nullptr) {
        if (!budget->isObject())
            return err("options: \"budget\" must be a JSON object");
        guard::VerificationBudget& b = options.verify_budget;
        Result<std::size_t> max_states =
            sizeField(*budget, "max_states", b.max_states);
        Result<std::size_t> partial =
            sizeField(*budget, "partial_max_states",
                      b.partial_max_states);
        Result<std::size_t> input_budget =
            sizeField(*budget, "input_budget", b.input_budget);
        Result<std::size_t> walks =
            sizeField(*budget, "trace_walks", b.trace_walks);
        Result<std::size_t> steps =
            sizeField(*budget, "trace_max_steps", b.trace.max_steps);
        Result<std::size_t> inputs =
            sizeField(*budget, "trace_max_inputs", b.trace.max_inputs);
        Result<std::size_t> seed = sizeField(*budget, "seed", b.seed);
        for (const Result<std::size_t>* r :
             {&max_states, &partial, &input_budget, &walks, &steps,
              &inputs, &seed})
            if (!r->ok())
                return r->error().context("options.budget");
        b.max_states = max_states.value();
        b.partial_max_states = partial.value();
        b.input_budget = input_budget.value();
        b.trace_walks = walks.value();
        b.trace.max_steps = steps.value();
        b.trace.max_inputs = inputs.value();
        b.seed = static_cast<std::uint64_t>(seed.value());
    }
    return options;
}

namespace {

/**
 * Profile workloads travel as arrays of scalar streams:
 * [[1, 2, 3], [4.5, true]]. Tuples have no canonical wire form and
 * never appear in benchmark workloads, so they are rejected rather
 * than guessed at.
 */
Result<std::vector<std::vector<Token>>>
tokenStreamsFromJson(const json::Value& v)
{
    std::vector<std::vector<Token>> streams;
    if (v.isNull())
        return streams;
    if (!v.isArray())
        return err("\"inputs\" must be an array of scalar streams");
    for (const json::Value& stream : v.asArray()) {
        if (!stream.isArray())
            return err("each input stream must be an array of scalars");
        std::vector<Token> tokens;
        tokens.reserve(stream.asArray().size());
        for (const json::Value& item : stream.asArray()) {
            if (item.isBool()) {
                tokens.emplace_back(Value(item.asBool()));
            } else if (item.isNumber()) {
                double d = item.asNumber();
                // Integral doubles round-trip as int64 so pure-fn
                // arithmetic sees the same representation the
                // benchmark workloads construct in-process.
                auto i = static_cast<std::int64_t>(d);
                if (static_cast<double>(i) == d)
                    tokens.emplace_back(Value(i));
                else
                    tokens.emplace_back(Value(d));
            } else if (item.isNull()) {
                tokens.emplace_back(Value());  // unit / control token
            } else {
                return err("input tokens must be scalars "
                           "(bool, number, or null for unit)");
            }
        }
        streams.push_back(std::move(tokens));
    }
    return streams;
}

json::Value
tokenStreamsToJson(const std::vector<std::vector<Token>>& streams)
{
    json::Value out{json::Array{}};
    for (const std::vector<Token>& stream : streams) {
        json::Value arr{json::Array{}};
        for (const Token& token : stream) {
            const Value& value = token.value;
            if (value.isBool())
                arr.push(value.asBool());
            else if (value.isInt())
                arr.push(value.asInt());
            else if (value.isDouble())
                arr.push(value.asDouble());
            else
                arr.push(nullptr);
        }
        out.push(std::move(arr));
    }
    return out;
}

}  // namespace

obs::json::Value
JobSpec::toJson() const
{
    json::Value out{json::Object{}};
    out.set("kind", kind);
    if (!circuit_dot.empty())
        out.set("circuit_dot", circuit_dot);
    out.set("options", compileOptionsToJson(options));
    if (kind == "profile") {
        out.set("inputs", tokenStreamsToJson(workload.inputs));
        out.set("expected_outputs", workload.expected_outputs);
        out.set("serial_io", workload.serial_io);
        if (!workload.memories.empty()) {
            json::Value mem{json::Object{}};
            for (const auto& [name, data] : workload.memories) {
                json::Value arr{json::Array{}};
                for (double d : data)
                    arr.push(d);
                mem.set(name, std::move(arr));
            }
            out.set("memories", std::move(mem));
        }
    }
    return out;
}

bool
isIntrospectionKind(const std::string& kind)
{
    return kind == "stats" || kind == "jobs" || kind == "health";
}

Result<JobSpec>
jobSpecFromJson(const obs::json::Value& v)
{
    if (!v.isObject())
        return err("job spec must be a JSON object");
    JobSpec spec;
    const json::Value* kind = v.find("kind");
    if (kind != nullptr) {
        if (!kind->isString())
            return err("job \"kind\" must be a string");
        spec.kind = kind->asString();
    }
    bool introspection = isIntrospectionKind(spec.kind);
    if (spec.kind != "ping" && spec.kind != "compile" &&
        spec.kind != "verify" && spec.kind != "validate" &&
        spec.kind != "profile" && !introspection)
        return err("unknown job kind \"" + spec.kind +
                   "\" (expected ping, compile, verify, validate, "
                   "profile, stats, jobs or health)");

    const json::Value* dot = v.find("circuit_dot");
    if (dot != nullptr) {
        if (!dot->isString())
            return err("job \"circuit_dot\" must be a string");
        spec.circuit_dot = dot->asString();
    }
    if (spec.kind != "ping" && !introspection &&
        spec.circuit_dot.empty())
        return err("job kind \"" + spec.kind +
                   "\" requires a non-empty \"circuit_dot\"");

    const json::Value* options = v.find("options");
    Result<CompileOptions> parsed = compileOptionsFromJson(
        options != nullptr ? *options : json::Value{});
    if (!parsed.ok())
        return parsed.error().context("job spec");
    spec.options = parsed.take();

    if (spec.kind == "profile") {
        const json::Value* inputs = v.find("inputs");
        Result<std::vector<std::vector<Token>>> streams =
            tokenStreamsFromJson(inputs != nullptr ? *inputs
                                                   : json::Value{});
        if (!streams.ok())
            return streams.error().context("job spec");
        spec.workload.inputs = streams.take();
        Result<std::size_t> expected =
            sizeField(v, "expected_outputs", 0);
        if (!expected.ok())
            return expected.error().context("job spec");
        spec.workload.expected_outputs = expected.value();
        Result<bool> serial = boolField(v, "serial_io", false);
        if (!serial.ok())
            return serial.error().context("job spec");
        spec.workload.serial_io = serial.value();
        const json::Value* memories = v.find("memories");
        if (memories != nullptr) {
            if (!memories->isObject())
                return err("job \"memories\" must be an object of "
                           "number arrays");
            for (const auto& [name, data] : memories->asObject()) {
                if (!data.isArray())
                    return err("memory \"" + name +
                               "\" must be a number array");
                std::vector<double> values;
                values.reserve(data.asArray().size());
                for (const json::Value& item : data.asArray()) {
                    if (!item.isNumber())
                        return err("memory \"" + name +
                                   "\" must contain only numbers");
                    values.push_back(item.asNumber());
                }
                spec.workload.memories[name] = std::move(values);
            }
        }
    }
    return spec;
}

namespace {

/** The deterministic verdict surface of a compile report: everything
 * the byte-identity contract covers, nothing wall-clock. */
json::Value
compileResultJson(const CompileReport& report)
{
    json::Value out{json::Object{}};
    out.set("output_dot", report.output_dot);
    out.set("verification_level", report.verification_level);
    if (report.verification_level != "not-run") {
        out.set("verdict", report.verdict.toJson());
        out.set("verify_cache_hit", report.verify_cache_hit);
        out.set("compile_cache_hit", report.compile_cache_hit);
        out.set("verify_cache_key", report.verify_cache_key);
    }
    out.set("report", report.toJson());
    return out;
}

}  // namespace

Result<obs::json::Value>
runJob(Compiler& compiler, const JobSpec& spec, const StopToken& stop)
{
    json::Value out{json::Object{}};
    out.set("kind", spec.kind);

    if (spec.kind == "ping") {
        out.set("pong", true);
        return out;
    }

    if (isIntrospectionKind(spec.kind))
        // Deterministic by design: the daemon intercepts these before
        // the scheduler, so reaching runJob means the caller asked a
        // one-shot compiler a question only a live service can answer.
        return err("job kind \"" + spec.kind +
                   "\" is answered by a running daemon, not a "
                   "one-shot job runner");

    if (spec.kind == "validate") {
        Result<ExprHigh> parsed = parseDot(spec.circuit_dot);
        if (!parsed.ok())
            return parsed.error().context("runJob(validate)");
        guard::ValidationReport report =
            guard::validateCircuit(parsed.value());
        out.set("ok", report.ok());
        out.set("validation", report.toJson());
        return out;
    }

    CompileOptions options = spec.options;
    options.stop = stop;
    if (spec.kind == "verify")
        options.governed_verify = true;

    if (spec.kind == "compile" || spec.kind == "verify") {
        Result<CompileReport> compiled =
            compiler.compileDot(spec.circuit_dot, options);
        if (!compiled.ok())
            return compiled.error().context("runJob(" + spec.kind + ")");
        json::Value result = compileResultJson(compiled.value());
        for (auto& [key, value] : result.asObject())
            out.set(key, std::move(value));
        return out;
    }

    // profile: compile first (so pure functions land in the
    // compiler's registry), then simulate the transformed circuit on
    // the request's workload under the same stop token.
    Result<CompileReport> compiled =
        compiler.compileDot(spec.circuit_dot, options);
    if (!compiled.ok())
        return compiled.error().context("runJob(profile)");

    sim::SimConfig config;
    config.stop = stop;
    Result<sim::Simulator> built = sim::Simulator::build(
        compiled.value().graph, compiler.environment().functionsPtr(),
        config);
    if (!built.ok())
        return built.error().context("runJob(profile)");
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : spec.workload.memories)
        simulator.setMemory(name, data);
    Result<sim::SimResult> run =
        simulator.run(spec.workload.inputs,
                      spec.workload.expected_outputs,
                      spec.workload.serial_io);
    if (!run.ok())
        return run.error().context("runJob(profile)");

    out.set("output_dot", compiled.value().output_dot);
    out.set("cycles", run.value().cycles);
    out.set("outputs", tokenStreamsToJson(run.value().outputs));
    return out;
}

}  // namespace graphiti
