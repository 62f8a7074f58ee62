#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

Ns
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Ledger::open(const char* layer, Ns start)
{
    Span span;
    span.name = layer;
    span.op = op_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = start;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

void
Ledger::beginOp(std::int64_t op)
{
    if (!enabled_)
        return;
    op_ = op;
    stack_.clear();
    stack_.push_back(open("unattributed", nowNs()));
}

void
Ledger::endOp()
{
    if (!enabled_ || stack_.empty())
        return;
    spans_[static_cast<std::size_t>(stack_.front())].end = nowNs();
    stack_.clear();
}

void
Ledger::record(const char* layer, Ns start, Ns end)
{
    if (enabled_)
        add(op_, stack_.empty() ? -1 : stack_.back(), layer, start, end);
}

int
Ledger::add(std::int64_t op, int parent, const char* layer, Ns start,
            Ns end)
{
    spans_.push_back(Span{layer, op, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
}

Ledger::Open::Open(Ledger& ledger, const char* layer) : ledger_(ledger)
{
    if (!ledger_.enabled_)
        return;
    index_ = ledger_.open(layer, nowNs());
    ledger_.stack_.push_back(index_);
}

Ledger::Open::~Open()
{
    if (index_ < 0)
        return;
    ledger_.spans_[static_cast<std::size_t>(index_)].end = nowNs();
    ledger_.stack_.pop_back();
}

LedgerSummary
summarize(const std::vector<const Ledger*>& ledgers)
{
    LedgerSummary out;
    for (const Ledger* ledger : ledgers) {
        const std::vector<Span>& spans = ledger->spans();
        // Direct children of each span, in start order.
        std::vector<std::vector<std::size_t>> children(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].parent >= 0)
                children[static_cast<std::size_t>(spans[i].parent)]
                    .push_back(i);
        std::map<std::int64_t, Ns> op_self_sum;
        std::map<std::int64_t, Ns> op_wall;
        std::map<std::int64_t, bool> op_bad;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& span = spans[i];
            std::vector<std::size_t>& kids = children[i];
            std::sort(kids.begin(), kids.end(),
                      [&](std::size_t a, std::size_t b) {
                          return spans[a].start < spans[b].start;
                      });
            Ns self = span.end - span.start;
            Ns cursor = span.start;
            for (std::size_t k : kids) {
                // Children must lie inside the parent and not overlap.
                if (spans[k].start < cursor || spans[k].end > span.end ||
                    spans[k].end < spans[k].start)
                    op_bad[span.op] = true;
                cursor = std::max(cursor, spans[k].end);
                self -= spans[k].end - spans[k].start;
            }
            out.self_ns[span.name] += self;
            op_self_sum[span.op] += self;
            if (span.parent < 0)
                op_wall[span.op] = span.end - span.start;
        }
        for (const auto& [op, wall] : op_wall) {
            out.wall_ns += wall;
            out.ops += 1;
            if (op_bad[op] || op_self_sum[op] != wall)
                out.violations += 1;
        }
    }
    return out;
}

bool
writeChromeTrace(const std::string& path,
                 const std::vector<const Ledger*>& ledgers)
{
    Ns epoch = 0;
    for (const Ledger* ledger : ledgers)
        for (const Span& span : ledger->spans())
            if (epoch == 0 || span.start < epoch)
                epoch = span.start;
    std::ofstream out(path);
    out << std::fixed;
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Ledger* ledger : ledgers) {
        const std::vector<Span>& spans = ledger->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& span = spans[i];
            out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ledger->thread()
                << ",\"ts\":"
                << static_cast<double>(span.start - epoch) / 1e3
                << ",\"dur\":"
                << static_cast<double>(span.end - span.start) / 1e3
                << ",\"args\":{\"op\":" << span.op
                << ",\"span\":" << i << ",\"parent\":" << span.parent
                << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
}

}  // namespace perfbench
