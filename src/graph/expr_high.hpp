#ifndef GRAPHITI_GRAPH_EXPR_HIGH_HPP
#define GRAPHITI_GRAPH_EXPR_HIGH_HPP

/**
 * @file
 * EXPRHIGH: the user-facing dataflow graph representation.
 *
 * An ExprHigh graph mirrors the dot graphs exchanged with Dynamatic: a
 * set of named component instances, edges connecting an output port of
 * one instance to an input port of another, and numbered dangling I/O
 * ports representing the circuit boundary (section 3 / figure 1 of the
 * paper). Rewrites are *matched* on ExprHigh; their application is
 * defined on ExprLow (section 4.2) and performed as the equivalent
 * ExprHigh splice.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/result.hpp"

namespace graphiti {

/** A reference to one port of a named instance, e.g. fork1.out0. */
struct PortRef
{
    std::string inst;
    std::string port;

    bool operator==(const PortRef&) const = default;
    auto operator<=>(const PortRef&) const = default;

    std::string toString() const { return inst + "." + port; }
};

/** Attribute map attached to a node (tag counts, constants, ops...). */
using AttrMap = std::map<std::string, std::string>;

/** A component instance declaration. */
struct NodeDecl
{
    std::string name;  ///< unique instance name
    std::string type;  ///< component type, e.g. "mux", "fork"
    AttrMap attrs;     ///< type parameters, e.g. {"op","mod"}

    bool operator==(const NodeDecl&) const = default;
};

/** A directed connection from an output port to an input port. */
struct Edge
{
    PortRef src;  ///< producer: instance output port
    PortRef dst;  ///< consumer: instance input port

    bool operator==(const Edge&) const = default;
    auto operator<=>(const Edge&) const = default;
};

/**
 * The high-level dataflow graph.
 *
 * Invariants established by validate(): instance names are unique, every
 * edge endpoint names an existing instance, each input port has at most
 * one driver, and I/O bindings reference existing ports.
 */
class ExprHigh
{
  public:
    ExprHigh() = default;

    /**
     * A graph holding exactly these parts, in this order, for callers
     * that assemble a whole graph at once (addNode checks each name
     * against every node before it). Unchecked: call validate().
     */
    ExprHigh(std::vector<NodeDecl> nodes, std::vector<Edge> edges,
             std::vector<std::optional<PortRef>> inputs,
             std::vector<std::optional<PortRef>> outputs);

    /** Add an instance; returns its name for chaining. */
    const std::string& addNode(std::string name, std::string type,
                               AttrMap attrs = {});

    /** Connect src (an output port) to dst (an input port). */
    void connect(PortRef src, PortRef dst);
    void connect(const std::string& src_inst, const std::string& src_port,
                 const std::string& dst_inst, const std::string& dst_port);

    /** Bind graph input @p io_index to an instance input port. */
    void bindInput(std::size_t io_index, PortRef dst);
    /** Bind graph output @p io_index to an instance output port. */
    void bindOutput(std::size_t io_index, PortRef src);

    /** Remove a node and all edges touching it. */
    void removeNode(const std::string& name);

    /** Remove a specific edge; returns true if it existed. */
    bool removeEdge(const PortRef& src, const PortRef& dst);

    /** Rename an instance, updating all references. */
    void renameNode(const std::string& old_name,
                    const std::string& new_name);

    const std::vector<NodeDecl>& nodes() const { return nodes_; }
    const std::vector<Edge>& edges() const { return edges_; }
    const std::vector<std::optional<PortRef>>& inputs() const
    {
        return inputs_;
    }
    const std::vector<std::optional<PortRef>>& outputs() const
    {
        return outputs_;
    }

    /** Look up a node by name; nullptr when absent. */
    const NodeDecl* findNode(const std::string& name) const;
    NodeDecl* findNode(const std::string& name);

    bool hasNode(const std::string& name) const
    {
        return findNode(name) != nullptr;
    }

    /** The driver of an input port, if any. */
    std::optional<PortRef> driverOf(const PortRef& dst) const;

    /** All consumers of an output port. */
    std::vector<PortRef> consumersOf(const PortRef& src) const;

    /** A fresh instance name with the given prefix. */
    std::string freshName(const std::string& prefix) const;

    /** Structural equality (node order insensitive). */
    bool sameAs(const ExprHigh& other) const;

    /** Check the invariants listed in the class comment. */
    Result<bool> validate() const;

    std::size_t numNodes() const { return nodes_.size(); }

  private:
    std::vector<NodeDecl> nodes_;
    std::vector<Edge> edges_;
    std::vector<std::optional<PortRef>> inputs_;
    std::vector<std::optional<PortRef>> outputs_;
};

}  // namespace graphiti

#endif  // GRAPHITI_GRAPH_EXPR_HIGH_HPP
