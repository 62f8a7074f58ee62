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
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/result.hpp"
#include "support/token.hpp"

namespace graphiti {

/** A unary pure function over values, the payload of Pure components. */
using PureFn = std::function<Value(const Value&)>;

/** An operator's evaluator over its arguments (arities per
 * operatorArity). */
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
