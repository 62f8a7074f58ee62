#ifndef GRAPHITI_GRAPH_TYPECHECK_HPP
#define GRAPHITI_GRAPH_TYPECHECK_HPP

/**
 * @file
 * Well-typedness of dataflow graphs (section 6.3).
 *
 * The paper resolves the tension between parametric rewrites and
 * concrete environments by demanding *well-typed graphs*: every
 * connection carries one consistent value type. This module infers
 * wire types by unification over the component typing rules — Branch
 * and Mux conditions are booleans, Join builds pairs that Split takes
 * apart, arithmetic is int or float per operator — and reports the
 * first conflict with the offending wire.
 *
 * Pure components (and anything else with an unconstrained
 * signature) keep polymorphic wires; unknowns are fine, conflicts are
 * not.
 */

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/expr_high.hpp"
#include "graph/signatures.hpp"
#include "support/result.hpp"

namespace graphiti {

/** An inferred wire type. */
class WireType
{
  public:
    enum class Kind { unknown, control, boolean, integer, floating,
                      pair };

    Kind kind = Kind::unknown;
    /** Components of a pair type. */
    std::shared_ptr<WireType> first;
    std::shared_ptr<WireType> second;

    static WireType unknown() { return WireType{}; }
    static WireType control() { return of(Kind::control); }
    static WireType boolean() { return of(Kind::boolean); }
    static WireType integer() { return of(Kind::integer); }
    static WireType floating() { return of(Kind::floating); }
    static WireType pairOf(WireType a, WireType b);

    std::string toString() const;

  private:
    static WireType
    of(Kind k)
    {
        WireType t;
        t.kind = k;
        return t;
    }
};

/** The result of type inference: resolved port types. */
struct TypeReport
{
    /** Inferred type of every output port (wires are named by their
     * driver). */
    std::map<PortRef, WireType> wire_types;
};

/**
 * Infer and check wire types of @p graph. Fails with the offending
 * wire on any conflict (e.g. a float driving a Branch condition).
 */
Result<TypeReport> checkWellTyped(const ExprHigh& graph);

/**
 * A dense numbering of one graph's nodes, built once per check and
 * shared by the passes that walk it: a name -> index hash (the first
 * node declaring a name) and every node's signature, computed once
 * per distinct (type, attributes).
 */
struct GraphIndex
{
    explicit GraphIndex(const ExprHigh& graph);

    /** Index of the first node named @p name, or -1. */
    std::ptrdiff_t find(std::string_view name) const;

    /** signatureOf(type, attrs) of node @p i. */
    const Result<Signature>&
    sig(std::size_t i) const
    {
        return distinct[sig_of[i]];
    }

    const ExprHigh& graph;
    std::unordered_map<std::string_view, std::size_t> first;
    /** Per node, its entry in distinct. */
    std::vector<std::size_t> sig_of;
    std::vector<Result<Signature>> distinct;
};

/**
 * checkWellTyped's conflict search without its TypeReport, for a
 * graph that passes ExprHigh::validate() and whose nodes all have a
 * signature: the first conflict's message, or nullopt when the graph
 * is well-typed.
 */
std::optional<std::string> findTypeConflict(const GraphIndex& index);

}  // namespace graphiti

#endif  // GRAPHITI_GRAPH_TYPECHECK_HPP
