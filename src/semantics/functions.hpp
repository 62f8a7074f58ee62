#ifndef GRAPHITI_SEMANTICS_FUNCTIONS_HPP
#define GRAPHITI_SEMANTICS_FUNCTIONS_HPP

/**
 * @file
 * Evaluation of operators and registered pure functions.
 *
 * Operators ("operator" components with an `op` attribute) are the
 * fixed arithmetic/logic catalog; pure functions ("pure" components
 * with an `fn` attribute) are looked up in a registry because the Pure
 * generation rewrites (section 3.2) synthesize new functions on the
 * fly (compositions of operators, tuple shuffles, ...).
 *
 * Each operator is one kernel over flat scalars. The simulator calls
 * the kernels directly on its tokens; operatorFn and evalOperator are
 * the boxed adapter the refinement semantics and the Pure generation
 * call, so every operator has exactly one implementation.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "support/result.hpp"
#include "support/token.hpp"

namespace graphiti {

/** A unary pure function over values, the payload of Pure components. */
using PureFn = std::function<Value(const Value&)>;

/**
 * What an operator kernel's operand or result holds. Unit to Double
 * are scalar payloads. A Tuple is opaque to the kernels, which only
 * pass it through or hand it back for boxed equality; its bits are the
 * operand's index. A Deferred result is one the kernel cannot give on
 * flat operands: an error, a failed coercion, or equality of two
 * tuples. Its bits say which, for resolveDeferred.
 */
enum class ScalarKind : std::uint8_t
{
    Unit,
    Bool,
    Int,
    Double,
    Tuple,
    Deferred,
};

/**
 * An operator operand or result: a kind and 64 payload bits (a bool is
 * 0 or 1, an int its two's complement bits, a double its bits, so -0.0
 * and NaN payloads survive), the payload a simulator token holds.
 */
struct Scalar
{
    std::uint64_t bits = 0;
    ScalarKind kind = ScalarKind::Unit;
};
static_assert(std::is_trivially_copyable_v<Scalar>);

/**
 * An operator's kernel: reads operatorArity(op) operands, returns the
 * result. Integer arithmetic wraps (two's complement); INT64_MIN / -1
 * is INT64_MIN and INT64_MIN % -1 is 0.
 */
using OperatorKernel = Scalar (*)(const Scalar* args);

/** The kernel of operator @p op, or nullptr for an unknown op. Resolve
 * it once and call it per evaluation, like operatorFn. */
OperatorKernel operatorKernel(const std::string& op);

/** The names of every operator in the catalog, in catalog order. */
std::vector<std::string> operatorNames();

/**
 * Finish a Deferred kernel result over the boxed operands @p args: the
 * error it stands for, the exception the failing coercion throws
 * (Value's own message), or the boxed tuple comparison.
 */
Result<Value> resolveDeferred(Scalar deferred,
                              const std::vector<Value>& args);

/** An operator's evaluator over boxed arguments: its kernel, adapted.
 * Reads operatorArity(op) arguments (std::out_of_range when fewer). */
using OperatorFn = Result<Value> (*)(const std::vector<Value>& args);

/**
 * The evaluator of operator @p op, or nullptr for an unknown op.
 * Resolve it once and call it per evaluation: the lookup is a string
 * search, the call is not.
 */
OperatorFn operatorFn(const std::string& op);

/** Evaluate operator @p op on @p args: operatorFn(op)(args), or an
 * "unknown integer operator" error. */
Result<Value> evalOperator(const std::string& op,
                           const std::vector<Value>& args);

/**
 * Registry of named pure functions.
 *
 * The registry is shared (by shared_ptr) between the environment, the
 * rewriting passes that mint new functions, and the simulator.
 */
class FnRegistry
{
  public:
    /** Register (or replace) function @p name. */
    void
    add(const std::string& name, PureFn fn)
    {
        fns_[name] = std::move(fn);
    }

    /** Look up @p name; nullptr when absent. */
    const PureFn*
    find(const std::string& name) const
    {
        auto it = fns_.find(name);
        return it == fns_.end() ? nullptr : &it->second;
    }

    bool has(const std::string& name) const { return find(name) != nullptr; }

    /** A name not yet present, with the given prefix. */
    std::string
    freshName(const std::string& prefix) const
    {
        for (std::size_t i = 0;; ++i) {
            std::string candidate = prefix + std::to_string(i);
            if (!has(candidate))
                return candidate;
        }
    }

  private:
    std::map<std::string, PureFn> fns_;
};

}  // namespace graphiti

#endif  // GRAPHITI_SEMANTICS_FUNCTIONS_HPP
