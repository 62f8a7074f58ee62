#ifndef PERFBENCH_LEDGER_HPP
#define PERFBENCH_LEDGER_HPP

/**
 * @file
 * The traced run's layer ledger: one span per call into a layer's
 * public function, recorded by the benchmark around the call (the
 * program itself is not instrumented).
 *
 * Times are integer steady-clock nanoseconds, so the exact-sum rule is
 * exact: a span's self time is its duration minus its direct children's
 * durations, and for every op the self times of all its spans (the op
 * root's own self time is "unattributed") add up to the op's wall time
 * with no rounding. Spans stay in memory and are written once, at the
 * end, as Chrome trace_event JSON.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

/** Steady-clock nanoseconds. */
Ns nowNs();

/** One layer call. */
struct Span
{
    std::string name;
    std::int64_t op = 0;  ///< op id; spans of one op share it
    int parent = -1;      ///< index in the same ledger; -1 = op root
    Ns start = 0;
    Ns end = 0;
};

/** Span recorder of one thread. A disabled ledger records nothing. */
class Ledger
{
  public:
    explicit Ledger(bool enabled = false, int thread = 0)
        : enabled_(enabled), thread_(thread)
    {
    }

    bool enabled() const { return enabled_; }
    int thread() const { return thread_; }

    /** Open the root span of op @p op. */
    void beginOp(std::int64_t op);
    /** Close the root span opened by beginOp. */
    void endOp();

    /** Run @p fn inside a span named @p layer, a child of the innermost
     * open span. */
    template <typename F>
    decltype(auto)
    time(const char* layer, F&& fn)
    {
        Open open(*this, layer);
        return fn();
    }

    /** Add an already-measured child span of the innermost open span. */
    void record(const char* layer, Ns start, Ns end);

    /** Add a finished span of op @p op under span @p parent (-1 = the
     * op root); returns its index, the parent of later children. */
    int add(std::int64_t op, int parent, const char* layer, Ns start,
            Ns end);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    class Open
    {
      public:
        Open(Ledger& ledger, const char* layer);
        ~Open();
        Open(const Open&) = delete;
        Open& operator=(const Open&) = delete;

      private:
        Ledger& ledger_;
        int index_ = -1;
    };

    int open(const char* layer, Ns start);

    bool enabled_;
    int thread_;
    std::int64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Self times of every layer, summed over all ops of some ledgers. */
struct LedgerSummary
{
    /** Self nanoseconds by layer; the op roots' self time is under
     * "unattributed". */
    std::map<std::string, Ns> self_ns;
    Ns wall_ns = 0;  ///< summed op wall time
    std::size_t ops = 0;
    /** Ops whose spans do not nest inside their parents, or whose self
     * times do not add up to their wall time. */
    std::size_t violations = 0;
};

LedgerSummary summarize(const std::vector<const Ledger*>& ledgers);

/** Write every span as Chrome trace_event JSON; false on I/O error. */
bool writeChromeTrace(const std::string& path,
                      const std::vector<const Ledger*>& ledgers);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_HPP
