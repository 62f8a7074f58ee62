#include "graph/expr_high.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace graphiti {

ExprHigh::ExprHigh(std::vector<NodeDecl> nodes, std::vector<Edge> edges,
                   std::vector<std::optional<PortRef>> inputs,
                   std::vector<std::optional<PortRef>> outputs)
    : nodes_(std::move(nodes)), edges_(std::move(edges)),
      inputs_(std::move(inputs)), outputs_(std::move(outputs))
{
}

const std::string&
ExprHigh::addNode(std::string name, std::string type, AttrMap attrs)
{
    if (hasNode(name))
        throw std::runtime_error("duplicate node name: " + name);
    nodes_.push_back(NodeDecl{std::move(name), std::move(type),
                              std::move(attrs)});
    return nodes_.back().name;
}

void
ExprHigh::connect(PortRef src, PortRef dst)
{
    edges_.push_back(Edge{std::move(src), std::move(dst)});
}

void
ExprHigh::connect(const std::string& src_inst, const std::string& src_port,
                  const std::string& dst_inst, const std::string& dst_port)
{
    connect(PortRef{src_inst, src_port}, PortRef{dst_inst, dst_port});
}

void
ExprHigh::bindInput(std::size_t io_index, PortRef dst)
{
    if (inputs_.size() <= io_index)
        inputs_.resize(io_index + 1);
    inputs_[io_index] = std::move(dst);
}

void
ExprHigh::bindOutput(std::size_t io_index, PortRef src)
{
    if (outputs_.size() <= io_index)
        outputs_.resize(io_index + 1);
    outputs_[io_index] = std::move(src);
}

void
ExprHigh::removeNode(const std::string& name)
{
    nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                                [&](const NodeDecl& n) {
                                    return n.name == name;
                                }),
                 nodes_.end());
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [&](const Edge& e) {
                                    return e.src.inst == name ||
                                           e.dst.inst == name;
                                }),
                 edges_.end());
    for (auto& io : inputs_)
        if (io && io->inst == name)
            io.reset();
    for (auto& io : outputs_)
        if (io && io->inst == name)
            io.reset();
}

bool
ExprHigh::removeEdge(const PortRef& src, const PortRef& dst)
{
    auto it = std::find(edges_.begin(), edges_.end(), Edge{src, dst});
    if (it == edges_.end())
        return false;
    edges_.erase(it);
    return true;
}

void
ExprHigh::renameNode(const std::string& old_name,
                     const std::string& new_name)
{
    if (old_name == new_name)
        return;
    if (hasNode(new_name))
        throw std::runtime_error("renameNode: target exists: " + new_name);
    NodeDecl* node = findNode(old_name);
    if (node == nullptr)
        throw std::runtime_error("renameNode: no such node: " + old_name);
    node->name = new_name;
    for (Edge& e : edges_) {
        if (e.src.inst == old_name)
            e.src.inst = new_name;
        if (e.dst.inst == old_name)
            e.dst.inst = new_name;
    }
    for (auto& io : inputs_)
        if (io && io->inst == old_name)
            io->inst = new_name;
    for (auto& io : outputs_)
        if (io && io->inst == old_name)
            io->inst = new_name;
}

const NodeDecl*
ExprHigh::findNode(const std::string& name) const
{
    for (const NodeDecl& n : nodes_)
        if (n.name == name)
            return &n;
    return nullptr;
}

NodeDecl*
ExprHigh::findNode(const std::string& name)
{
    for (NodeDecl& n : nodes_)
        if (n.name == name)
            return &n;
    return nullptr;
}

std::optional<PortRef>
ExprHigh::driverOf(const PortRef& dst) const
{
    for (const Edge& e : edges_)
        if (e.dst == dst)
            return e.src;
    return std::nullopt;
}

std::vector<PortRef>
ExprHigh::consumersOf(const PortRef& src) const
{
    std::vector<PortRef> out;
    for (const Edge& e : edges_)
        if (e.src == src)
            out.push_back(e.dst);
    return out;
}

std::string
ExprHigh::freshName(const std::string& prefix) const
{
    for (std::size_t i = 0;; ++i) {
        std::string candidate = prefix + std::to_string(i);
        if (!hasNode(candidate))
            return candidate;
    }
}

bool
ExprHigh::sameAs(const ExprHigh& other) const
{
    auto node_key = [](const NodeDecl& n) {
        return std::tuple(n.name, n.type, n.attrs);
    };
    std::vector<std::tuple<std::string, std::string, AttrMap>> a, b;
    for (const NodeDecl& n : nodes_)
        a.push_back(node_key(n));
    for (const NodeDecl& n : other.nodes_)
        b.push_back(node_key(n));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b)
        return false;

    std::vector<Edge> ea = edges_, eb = other.edges_;
    std::sort(ea.begin(), ea.end());
    std::sort(eb.begin(), eb.end());
    return ea == eb && inputs_ == other.inputs_ &&
           outputs_ == other.outputs_;
}

namespace {

/** A port as two views into the graph's own strings. */
using PortKey = std::pair<std::string_view, std::string_view>;

struct PortKeyHash
{
    std::size_t operator()(const PortKey& key) const
    {
        std::hash<std::string_view> h;
        return h(key.first) * 31 + h(key.second);
    }
};

using PortSet = std::unordered_set<PortKey, PortKeyHash>;

PortKey
keyOf(const PortRef& ref)
{
    return {ref.inst, ref.port};
}

}  // namespace

Result<bool>
ExprHigh::validate() const
{
    std::unordered_set<std::string_view> names;
    names.reserve(nodes_.size());
    for (const NodeDecl& n : nodes_) {
        if (!names.insert(n.name).second)
            return err("duplicate instance name: " + n.name);
    }
    PortSet driven;
    PortSet driving;
    driven.reserve(edges_.size());
    driving.reserve(edges_.size());
    for (const Edge& e : edges_) {
        if (names.count(e.src.inst) == 0)
            return err("edge source names missing instance: " +
                       e.src.toString());
        if (names.count(e.dst.inst) == 0)
            return err("edge target names missing instance: " +
                       e.dst.toString());
        if (!driven.insert(keyOf(e.dst)).second)
            return err("input port driven twice: " + e.dst.toString());
        if (!driving.insert(keyOf(e.src)).second)
            return err("output port used twice (insert a fork): " +
                       e.src.toString());
    }
    for (const auto& io : inputs_) {
        if (io && names.count(io->inst) == 0)
            return err("graph input bound to missing instance: " +
                       io->toString());
        if (io && driven.count(keyOf(*io)) > 0)
            return err("graph input port also driven by an edge: " +
                       io->toString());
    }
    for (const auto& io : outputs_) {
        if (io && names.count(io->inst) == 0)
            return err("graph output bound to missing instance: " +
                       io->toString());
        if (io && driving.count(keyOf(*io)) > 0)
            return err("graph output port also consumed by an edge: " +
                       io->toString());
    }
    return true;
}

}  // namespace graphiti
