#include "refine/state_space.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "obs/scope.hpp"

namespace graphiti {

namespace detail {

/**
 * Disk parking for cold frontier rows.
 *
 * Created with the write-temp+rename pattern (like the Perfetto sink
 * and the verdict store): the row words are written to a `.tmp`
 * sibling, fsynced, then renamed into place, so a crash never leaves
 * a half-written spill file under the final name. The file holds raw
 * little-endian-of-this-process uint32 words — it never outlives the
 * process (the destructor unlinks it), so no portable format is
 * needed.
 */
class FrontierSpill
{
  public:
    /** Spill @p words uint32 values; nullptr on any I/O failure (the
     * caller then simply keeps the rows in RAM). */
    static std::unique_ptr<FrontierSpill>
    create(const std::uint32_t* data, std::size_t words)
    {
        static std::atomic<std::uint64_t> counter{0};
        const char* tmpdir = std::getenv("TMPDIR");
        std::string dir =
            (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
        std::string path = dir + "/graphiti-frontier-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter.fetch_add(1)) +
                           ".spill";
        std::string tmp = path + ".tmp";
        int wfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0600);
        if (wfd < 0)
            return nullptr;
        const char* bytes = reinterpret_cast<const char*>(data);
        std::size_t total = words * sizeof(std::uint32_t);
        std::size_t done = 0;
        while (done < total) {
            ssize_t n = ::write(wfd, bytes + done, total - done);
            if (n <= 0) {
                ::close(wfd);
                ::unlink(tmp.c_str());
                return nullptr;
            }
            done += static_cast<std::size_t>(n);
        }
        ::fsync(wfd);
        ::close(wfd);
        if (::rename(tmp.c_str(), path.c_str()) != 0) {
            ::unlink(tmp.c_str());
            return nullptr;
        }
        int rfd = ::open(path.c_str(), O_RDONLY);
        if (rfd < 0) {
            ::unlink(path.c_str());
            return nullptr;
        }
        auto spill = std::unique_ptr<FrontierSpill>(new FrontierSpill);
        spill->path_ = std::move(path);
        spill->fd_ = rfd;
        spill->words_ = words;
        return spill;
    }

    ~FrontierSpill()
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (!path_.empty())
            ::unlink(path_.c_str());
    }

    FrontierSpill(const FrontierSpill&) = delete;
    FrontierSpill& operator=(const FrontierSpill&) = delete;

    std::size_t words() const { return words_; }
    std::size_t bytes() const { return words_ * sizeof(std::uint32_t); }

    bool
    readWords(std::size_t word_off, std::size_t nwords,
              std::uint32_t* out) const
    {
        char* dst = reinterpret_cast<char*>(out);
        std::size_t total = nwords * sizeof(std::uint32_t);
        std::size_t off = word_off * sizeof(std::uint32_t);
        std::size_t done = 0;
        while (done < total) {
            ssize_t n = ::pread(fd_, dst + done, total - done,
                                static_cast<off_t>(off + done));
            if (n <= 0)
                return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    }

  private:
    FrontierSpill() = default;

    std::string path_;
    int fd_ = -1;
    std::size_t words_ = 0;
};

}  // namespace detail

InputDomain
InputDomain::uniform(const DenotedModule& mod, std::vector<Token> tokens)
{
    InputDomain d;
    for (const LowPortId& port : mod.inputNames())
        d.tokens[port] = tokens;
    return d;
}

namespace {

std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash of an encoded state: FNV over the pool-id row plus budget.
 * Pool ids are canonical (merge-order interning), so this hash — and
 * everything derived from it, including index shard assignment — is
 * identical at any thread count and across park/resume. */
std::uint64_t
hashRow(const std::uint32_t* row, std::size_t width,
        std::uint32_t budget)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < width; ++i)
        h = fnv1a64(h, row[i]);
    return fnv1a64(h, budget);
}

/**
 * The state-interning table, sharded by encoded-row hash.
 *
 * Keys are (pool-id row, budget) — the rows themselves live in the
 * StateSpace; the table stores only hash -> candidate state ids, so
 * deduplication no longer duplicates state storage. During the
 * parallel successor phase the table is *frozen*: workers do
 * read-only lookups (no locks needed — no writer exists until the
 * barrier). Inserts happen only in the sequential merge that follows,
 * so canonical ids are assigned in the exact order the sequential
 * worklist would have produced. Sharding keeps each map small (cache-
 * friendly merge) and lets reserve() spread one large allocation.
 */
class ShardedStateIndex
{
  public:
    void
    reserve(std::size_t total)
    {
        for (auto& shard : shards_)
            shard.reserve(total / kShards + 1);
    }

    /** First candidate under @p h satisfying @p eq (which compares
     * the candidate's stored row + budget against the probe). */
    template <typename Eq>
    std::optional<std::uint32_t>
    lookup(std::uint64_t h, Eq&& eq) const
    {
        const auto& shard = shards_[shardOf(h)];
        auto it = shard.find(h);
        if (it == shard.end())
            return std::nullopt;
        for (std::uint32_t id : it->second) {
            if (eq(id))
                return id;
        }
        return std::nullopt;
    }

    void
    insert(std::uint64_t h, std::uint32_t id)
    {
        shards_[shardOf(h)][h].push_back(id);
        ++ids_;
    }

    /**
     * Byte estimate of the table itself: nodes, candidate-id
     * elements, and bucket arrays. No deep keys anymore — states are
     * referenced by id. Bucket counts follow deterministically from
     * the canonical insertion sequence, but differ across standard
     * libraries, so this figure feeds resource accounting and never
     * any verdict.
     */
    std::size_t
    approxBytes() const
    {
        // Unordered-map node: hash link + cached hash + payload.
        constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
        std::size_t bytes = ids_ * sizeof(std::uint32_t);
        for (const auto& shard : shards_) {
            bytes += shard.size() *
                     (sizeof(std::pair<const std::uint64_t,
                                       std::vector<std::uint32_t>>) +
                      kNodeOverhead);
            bytes += shard.bucket_count() * sizeof(void*);
        }
        return bytes;
    }

  private:
    static constexpr std::size_t kShards = 64;

    static std::size_t
    shardOf(std::uint64_t h)
    {
        // Use high bits: the maps consume the low bits for buckets.
        return (h >> 57) % kShards;
    }

    std::array<
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>,
        kShards>
        shards_;
    std::size_t ids_ = 0;
};

/** One successor produced while expanding a state, recorded in the
 * exact order the sequential loop enumerates them. */
struct Succ
{
    enum class Kind : std::uint8_t { Internal, Input, Output };

    Kind kind = Kind::Internal;
    std::uint32_t port_idx = 0;
    std::uint32_t token_idx = 0;
    Token token;  ///< Output edges only.
    /** Concrete successor, kept until the merge interns (or hits) it. */
    GraphState state;
    std::uint32_t budget = 0;
    /** Pool-id encoding, valid when encoded — every component was
     * already in the (frozen) pool. */
    std::vector<std::uint32_t> row;
    std::uint64_t hash = 0;
    bool encoded = false;
    /** Hit in the frozen index, resolved during the parallel phase. */
    std::optional<std::uint32_t> known;
};

}  // namespace

StateSpace::StateSpace() = default;
StateSpace::~StateSpace() = default;
StateSpace::StateSpace(StateSpace&&) noexcept = default;
StateSpace& StateSpace::operator=(StateSpace&&) noexcept = default;

Result<StateSpace>
StateSpace::explore(const DenotedModule& mod, const InputDomain& domain,
                    const ExplorationLimits& limits)
{
    Result<StateSpace> space = explorePartial(mod, domain, limits);
    if (!space.ok())
        return space.error();
    if (!space.value().complete()) {
        if (space.value().stopped())
            return err("state space exploration cancelled: " +
                       space.value().stopReason());
        return err("state space exploration exceeded max_states");
    }
    return space;
}

Result<StateSpace>
StateSpace::explorePartial(const DenotedModule& mod,
                           const InputDomain& domain,
                           const ExplorationLimits& limits)
{
    StateSpace space;
    space.stop_ = limits.stop;
    space.threads_ = ThreadPool::resolveThreads(limits.threads);
    space.spill_cap_bytes_ = limits.spill_bytes;
    space.in_ports_ = mod.inputNames();
    space.out_ports_ = mod.outputNames();
    for (const LowPortId& port : space.in_ports_) {
        auto it = domain.tokens.find(port);
        space.domain_tokens_.push_back(
            it == domain.tokens.end() ? std::vector<Token>{} : it->second);
    }
    GraphState initial = mod.initialState();
    space.width_ = static_cast<std::uint32_t>(initial.comps.size());
    for (const CompState& comp : initial.comps)
        space.rows_.push_back(space.pool_.intern(comp));
    space.budget_.push_back(
        static_cast<std::uint32_t>(limits.input_budget));
    space.int_off_.push_back(0);
    space.in_off_.push_back(0);
    space.out_off_.push_back(0);
    space.refreshFrontier();

    Result<bool> expanded = space.expand(
        mod, std::max<std::size_t>(1, limits.max_states));
    if (!expanded.ok())
        return expanded.error();
    return space;
}

Result<bool>
StateSpace::resume(const DenotedModule& mod,
                   std::size_t additional_states)
{
    if (complete())
        return true;
    GRAPHITI_OBS_COUNT("refine.resumes", 1);
    GRAPHITI_OBS_VPROBE(recordResume());
    return expand(mod, numStates() + additional_states);
}

Result<bool>
StateSpace::expand(const DenotedModule& mod, std::size_t max_states)
{
    GRAPHITI_OBS_TIMER(obs_timer, "refine.explore_seconds");
    // A parked space may hold its cold frontier rows on disk; page
    // them back before anything dereferences rows_.
    Result<bool> paged = pageBackSpill();
    if (!paged.ok())
        return paged;
    std::size_t states_before = numStates();
    auto obs_start = std::chrono::steady_clock::now();
    obs::VerifyProbe* probe = nullptr;
    if (obs::Scope* obs_scope = obs::current())
        probe = obs_scope->verifyProbe();
    // Rebuild the dedup index from the interned states; a parked
    // partial space carries no index, only its frontier. Reserve for
    // the whole run up front (capped — max_states defaults large).
    ShardedStateIndex index;
    index.reserve(std::max(numStates(),
                           std::min<std::size_t>(max_states, 1 << 16)));
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(numStates()); ++i)
        index.insert(
            hashRow(rows_.data() + std::size_t{i} * width_, width_,
                    budget_[i]),
            i);

    frontier_.clear();

    // Does interned state @p id match the probe row + budget?
    auto rowEq = [&](std::uint32_t id, const std::uint32_t* row,
                     std::uint32_t budget) {
        if (budget_[id] != budget)
            return false;
        const std::uint32_t* r = rows_.data() + std::size_t{id} * width_;
        return std::equal(r, r + width_, row);
    };

    bool capped = false;
    // Resolve one successor to a state id, interning on first sight.
    // Succs pre-resolved against the frozen pool + index carry their
    // encoding; everything else re-probes the live structures — a
    // previous merge in this batch may have interned the same value.
    // New component states are interned in slot order here, in the
    // sequential merge only, so pool ids are canonical
    // (docs/parallelism.md). Returns nullopt when the cap fires; the
    // pool is deliberately not touched before the cap check, so a
    // parked expansion leaves the pool exactly as a one-shot run
    // would have it at the same point.
    std::vector<std::uint32_t> scratch(width_);
    auto intern = [&](Succ& s) -> std::optional<std::uint32_t> {
        const std::uint32_t* row = nullptr;
        std::uint64_t h = 0;
        bool have_row = false;
        if (s.encoded) {
            row = s.row.data();
            h = s.hash;
            have_row = true;
        } else {
            have_row = true;
            for (std::uint32_t c = 0; c < width_; ++c) {
                auto id = pool_.find(s.state.comps[c]);
                if (!id) {
                    have_row = false;
                    break;
                }
                scratch[c] = *id;
            }
            if (have_row) {
                row = scratch.data();
                h = hashRow(row, width_, s.budget);
            }
        }
        if (have_row) {
            if (auto hit = index.lookup(h, [&](std::uint32_t id) {
                    return rowEq(id, row, s.budget);
                }))
                return *hit;
        }
        if (numStates() >= max_states) {
            capped = true;
            return std::nullopt;
        }
        if (!have_row) {
            for (std::uint32_t c = 0; c < width_; ++c)
                scratch[c] = pool_.intern(s.state.comps[c]);
            row = scratch.data();
            h = hashRow(row, width_, s.budget);
        }
        std::uint32_t id = static_cast<std::uint32_t>(numStates());
        rows_.insert(rows_.end(), row, row + width_);
        budget_.push_back(s.budget);
        index.insert(h, id);
        return id;
    };

    // Bounded-cadence progress publisher: once per frontier batch in
    // the parallel path, every kPublishEvery merges in the sequential
    // one, and once at the end — never per state. Observation only;
    // nothing here feeds back into exploration order.
    constexpr std::size_t kPublishEvery = 2048;
    auto obs_publish = [&] {
        std::size_t bytes = approxBytes() + index.approxBytes();
        peak_bytes_ = std::max(peak_bytes_, bytes);
        if (probe == nullptr)
            return;
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             obs_start)
                             .count();
        std::size_t grown = numStates() - states_before;
        probe->publishExplore(
            numStates(), numStates() - expanded_,
            seconds > 0.0 ? static_cast<double>(grown) / seconds : 0.0,
            100.0 * static_cast<double>(numStates()) /
                static_cast<double>(max_states));
        probe->notePeakBytes(bytes);
    };

    // Enumerate the successors of one state in the canonical order
    // (internal, then inputs port/token-major, then outputs), then
    // resolve each against the frozen pool + index. Read-only on
    // *this — safe to fan out while no merge runs.
    auto enumerate = [&](std::uint32_t id) {
        std::vector<Succ> out;
        GraphState state = decodeState(id);
        std::uint32_t budget = budget_[id];
        for (GraphState& next : mod.internalSteps(state)) {
            Succ s;
            s.kind = Succ::Kind::Internal;
            s.state = std::move(next);
            s.budget = budget;
            out.push_back(std::move(s));
        }
        if (budget > 0) {
            for (std::uint32_t p = 0; p < in_ports_.size(); ++p) {
                const auto& toks = domain_tokens_[p];
                for (std::uint32_t t = 0; t < toks.size(); ++t) {
                    for (GraphState& next :
                         mod.inputStep(state, in_ports_[p], toks[t])) {
                        Succ s;
                        s.kind = Succ::Kind::Input;
                        s.port_idx = p;
                        s.token_idx = t;
                        s.state = std::move(next);
                        s.budget = budget - 1;
                        out.push_back(std::move(s));
                    }
                }
            }
        }
        for (std::uint32_t p = 0; p < out_ports_.size(); ++p) {
            for (auto& [token, next] :
                 mod.outputStep(state, out_ports_[p])) {
                Succ s;
                s.kind = Succ::Kind::Output;
                s.port_idx = p;
                s.token = std::move(token);
                s.state = std::move(next);
                s.budget = budget;
                out.push_back(std::move(s));
            }
        }
        for (Succ& s : out) {
            s.row.resize(width_);
            s.encoded = true;
            for (std::uint32_t c = 0; c < width_; ++c) {
                auto pool_id = pool_.find(s.state.comps[c]);
                if (!pool_id) {
                    // A never-seen component state: the successor
                    // cannot be interned yet, so no index probe.
                    s.encoded = false;
                    s.row.clear();
                    break;
                }
                s.row[c] = *pool_id;
            }
            if (s.encoded) {
                s.hash = hashRow(s.row.data(), width_, s.budget);
                s.known = index.lookup(s.hash, [&](std::uint32_t id2) {
                    return rowEq(id2, s.row.data(), s.budget);
                });
            }
        }
        return out;
    };

    // Replay one expanded state's successors through intern() in
    // enumeration order — exactly what the sequential loop does
    // inline — and stamp the state's CSR edge ranges. Returns false
    // when the state cap fired mid-state: the partially recorded
    // edges are rolled back and the state stays pending, same as the
    // pre-CSR encoding dropped its edge vectors.
    auto merge = [&](std::vector<Succ>& succs) {
        std::size_t int0 = int_flat_.size();
        std::size_t in0 = in_flat_.size();
        std::size_t out0 = out_flat_.size();
        for (Succ& s : succs) {
            std::optional<std::uint32_t> dst =
                s.known ? s.known : intern(s);
            if (!dst) {
                int_flat_.resize(int0);
                in_flat_.resize(in0);
                out_flat_.resize(out0);
                return false;
            }
            switch (s.kind) {
            case Succ::Kind::Internal:
                int_flat_.push_back(*dst);
                break;
            case Succ::Kind::Input:
                in_flat_.push_back(
                    InputEdge{s.port_idx, s.token_idx, *dst});
                break;
            case Succ::Kind::Output:
                out_flat_.push_back(
                    OutputEdge{s.port_idx, std::move(s.token), *dst});
                break;
            }
        }
        int_off_.push_back(static_cast<std::uint32_t>(int_flat_.size()));
        in_off_.push_back(static_cast<std::uint32_t>(in_flat_.size()));
        out_off_.push_back(static_cast<std::uint32_t>(out_flat_.size()));
        ++expanded_;
        return true;
    };

    stopped_ = false;
    stop_reason_.clear();
    if (threads_ <= 1) {
        // Sequential worklist — the canonical order every other mode
        // reproduces. States are interned in ascending id order and
        // expanded FIFO, so the pending set is always the contiguous
        // range [expanded_, numStates()).
        std::size_t expanded_since_publish = 0;
        while (expanded_ < numStates() && !capped) {
            // Cooperative cancellation: leave the state unexpanded,
            // like a cap, so the space stays resumable + edge-exact.
            if (stop_.stopRequested()) {
                stopped_ = true;
                stop_reason_ = stop_.reason();
                break;
            }
            std::vector<Succ> succs = enumerate(expanded_);
            merge(succs);
            if (++expanded_since_publish >= kPublishEvery) {
                expanded_since_publish = 0;
                obs_publish();
            }
        }
    } else {
        // Batched frontier expansion: compute successor lists for the
        // whole pending range in parallel against the frozen pool and
        // index, then intern sequentially in frontier order. The
        // pending range is in sequential-FIFO order throughout, so
        // the merge assigns the same state ids — and interns the same
        // pool ids in the same order — the sequential loop would
        // (docs/parallelism.md).
        ThreadPool pool(threads_);
        while (expanded_ < numStates() && !capped && !stopped_) {
            std::uint32_t lo = expanded_;
            std::uint32_t hi = static_cast<std::uint32_t>(numStates());
            std::vector<std::vector<Succ>> succs(hi - lo);
            pool.parallelFor(hi - lo, [&](std::size_t i) {
                succs[i] = enumerate(lo + static_cast<std::uint32_t>(i));
            });
            for (std::uint32_t id = lo; id < hi; ++id) {
                if (capped || stopped_)
                    break;
                if (stop_.stopRequested()) {
                    stopped_ = true;
                    stop_reason_ = stop_.reason();
                    break;
                }
                merge(succs[id - lo]);
            }
            obs_publish();
        }
        // Lane occupancy of this expansion's pool — observation only,
        // aggregated so the cost is one snapshot per expand().
        if (obs::Scope* scope = obs::current()) {
            ThreadPool::PoolStats ps = pool.stats();
            std::uint64_t chunks = 0;
            std::uint64_t steals = 0;
            std::uint64_t idle_ns = 0;
            for (const ThreadPool::LaneStats& lane : ps.lanes) {
                chunks += lane.chunks;
                steals += lane.steals;
                idle_ns += lane.idle_ns;
            }
            scope->metrics().add(
                "pool.chunks", static_cast<std::int64_t>(chunks));
            scope->metrics().add(
                "pool.steals", static_cast<std::int64_t>(steals));
            scope->metrics().add(
                "pool.idle_ns", static_cast<std::int64_t>(idle_ns));
            scope->metrics().add(
                "pool.batches", static_cast<std::int64_t>(ps.batches));
        }
    }
    refreshFrontier();

    obs_publish();
    if (!frontier_.empty()) {
        // Exploration parked (cap or stop) with work left over.
        GRAPHITI_OBS_COUNT("refine.parks", 1);
        if (probe != nullptr)
            probe->recordPark();
    }
    if (obs::Scope* scope = obs::current()) {
        std::size_t grown = numStates() - states_before;
        scope->metrics().add("refine.states",
                             static_cast<std::int64_t>(grown));
        scope->metrics().add("refine.explorations");
        scope->metrics().set("refine.frontier",
                             static_cast<double>(frontier_.size()));
        scope->metrics().setMax("refine.peak_bytes",
                                static_cast<double>(peak_bytes_));
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             obs_start)
                             .count();
        if (seconds > 0.0)
            scope->metrics().setMax(
                "refine.states_per_second",
                static_cast<double>(grown) / seconds);
    }

    // Cold frontier rows past the byte cap park on disk until the
    // next expand() pages them back. Memory policy only — happens
    // after the fingerprint-visible state is final.
    maybeSpill();

    // Memoized closures may predate the new edges; recompute lazily.
    closure_.assign(numStates(), std::nullopt);
    return true;
}

void
StateSpace::refreshFrontier()
{
    frontier_.clear();
    for (std::uint32_t id = expanded_;
         id < static_cast<std::uint32_t>(numStates()); ++id)
        frontier_.push_back(id);
}

void
StateSpace::maybeSpill()
{
    if (spill_cap_bytes_ == 0 || width_ == 0 || complete())
        return;
    std::size_t row_bytes = std::size_t{width_} * sizeof(std::uint32_t);
    std::size_t pending = numStates() - expanded_;
    if (pending * row_bytes <= spill_cap_bytes_)
        return;
    // Keep the hottest rows (expanded first on resume) up to the cap;
    // spill the cold tail.
    std::size_t keep = spill_cap_bytes_ / row_bytes;
    std::uint32_t cut =
        expanded_ + static_cast<std::uint32_t>(keep);
    std::size_t words = (numStates() - cut) * std::size_t{width_};
    auto spill =
        detail::FrontierSpill::create(
            rows_.data() + std::size_t{cut} * width_, words);
    if (spill == nullptr)
        return;  // I/O trouble: degrade to keeping rows in RAM.
    spill_ = std::move(spill);
    spill_start_ = cut;
    rows_.resize(std::size_t{cut} * width_);
    spill_stats_.spills += 1;
    spill_stats_.spilled_bytes += words * sizeof(std::uint32_t);
    GRAPHITI_OBS_COUNT("refine.spills", 1);
    GRAPHITI_OBS_COUNT("refine.spilled_bytes",
                       static_cast<std::int64_t>(
                           words * sizeof(std::uint32_t)));
}

Result<bool>
StateSpace::pageBackSpill()
{
    if (spill_ == nullptr)
        return true;
    std::size_t words = spill_->words();
    std::size_t base = rows_.size();
    rows_.resize(base + words);
    if (!spill_->readWords(0, words, rows_.data() + base)) {
        rows_.resize(base);
        return err("failed to page back spilled frontier rows");
    }
    spill_stats_.pages_in += 1;
    spill_stats_.paged_in_bytes += words * sizeof(std::uint32_t);
    GRAPHITI_OBS_COUNT("refine.spill_pages_in", 1);
    spill_.reset();
    spill_start_ = 0;
    return true;
}

void
StateSpace::readRow(std::uint32_t s, std::uint32_t* out) const
{
    if (spill_ == nullptr || s < spill_start_) {
        const std::uint32_t* r = rows_.data() + std::size_t{s} * width_;
        std::copy(r, r + width_, out);
        return;
    }
    std::size_t off = std::size_t{s - spill_start_} * width_;
    if (!spill_->readWords(off, width_, out))
        throw std::runtime_error(
            "spilled frontier row unreadable for state " +
            std::to_string(s));
}

GraphState
StateSpace::decodeState(std::uint32_t s) const
{
    std::vector<std::uint32_t> row(width_);
    readRow(s, row.data());
    GraphState state;
    state.comps.reserve(width_);
    for (std::uint32_t id : row)
        state.comps.push_back(pool_.value(id));
    return state;
}

std::vector<std::uint32_t>
StateSpace::encodedRow(std::uint32_t s) const
{
    std::vector<std::uint32_t> row(width_);
    readRow(s, row.data());
    return row;
}

std::size_t
StateSpace::tokensInFlight(std::uint32_t s) const
{
    std::vector<std::uint32_t> row(width_);
    readRow(s, row.data());
    std::size_t n = 0;
    for (std::uint32_t id : row)
        n += pool_.tokensOf(id);
    return n;
}

const std::vector<std::uint32_t>&
StateSpace::internalClosure(std::uint32_t s) const
{
    if (closure_[s])
        return *closure_[s];
    std::vector<std::uint32_t> reach;
    std::vector<bool> seen(numStates(), false);
    std::deque<std::uint32_t> frontier{s};
    seen[s] = true;
    while (!frontier.empty()) {
        std::uint32_t cur = frontier.front();
        frontier.pop_front();
        reach.push_back(cur);
        for (std::uint32_t next : internalEdges(cur)) {
            if (!seen[next]) {
                seen[next] = true;
                frontier.push_back(next);
            }
        }
    }
    closure_[s] = std::move(reach);
    return *closure_[s];
}

void
StateSpace::precomputeClosures(ThreadPool& pool) const
{
    // Each lane writes only its own slots of closure_, so the fill is
    // race-free; afterwards internalClosure() never writes again.
    pool.parallelFor(numStates(), [&](std::size_t s) {
        if (closure_[s])
            return;
        std::vector<std::uint32_t> reach;
        std::vector<bool> seen(numStates(), false);
        std::deque<std::uint32_t> frontier{
            static_cast<std::uint32_t>(s)};
        seen[s] = true;
        while (!frontier.empty()) {
            std::uint32_t cur = frontier.front();
            frontier.pop_front();
            reach.push_back(cur);
            for (std::uint32_t next :
                 internalEdges(cur)) {
                if (!seen[next]) {
                    seen[next] = true;
                    frontier.push_back(next);
                }
            }
        }
        closure_[s] = std::move(reach);
    });
}

std::uint64_t
StateSpace::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a64(h, numStates());
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(numStates()); ++s) {
        h = fnv1a64(h, budget_[s]);
        EdgeSpan<std::uint32_t> ints = internalEdges(s);
        h = fnv1a64(h, ints.size());
        for (std::uint32_t dst : ints)
            h = fnv1a64(h, dst);
        EdgeSpan<InputEdge> ins = inputEdges(s);
        h = fnv1a64(h, ins.size());
        for (const InputEdge& e : ins) {
            h = fnv1a64(h, e.port_idx);
            h = fnv1a64(h, e.token_idx);
            h = fnv1a64(h, e.dst);
        }
        EdgeSpan<OutputEdge> outs = outputEdges(s);
        h = fnv1a64(h, outs.size());
        for (const OutputEdge& e : outs) {
            h = fnv1a64(h, e.port_idx);
            h = fnv1a64(h, e.token.toString());
            h = fnv1a64(h, e.dst);
        }
    }
    h = fnv1a64(h, frontier_.size());
    for (std::uint32_t s : frontier_)
        h = fnv1a64(h, s);
    return h;
}

std::size_t
StateSpace::approxBytes() const
{
    std::size_t bytes = sizeof(StateSpace);
    bytes += pool_.approxBytes();
    bytes += rows_.size() * sizeof(std::uint32_t);
    bytes += (int_off_.size() + in_off_.size() + out_off_.size()) *
             sizeof(std::uint32_t);
    bytes += int_flat_.size() * sizeof(std::uint32_t);
    bytes += in_flat_.size() * sizeof(InputEdge);
    bytes += out_flat_.size() * sizeof(OutputEdge);
    bytes += budget_.size() * sizeof(std::uint32_t);
    bytes += frontier_.size() * sizeof(std::uint32_t);
    return bytes;
}

StateSpace::MemoryBreakdown
StateSpace::breakdown() const
{
    MemoryBreakdown b;
    b.pool = pool_.approxBytes();
    b.rows = rows_.size() * sizeof(std::uint32_t);
    b.edges = (int_off_.size() + in_off_.size() + out_off_.size()) *
                  sizeof(std::uint32_t) +
              int_flat_.size() * sizeof(std::uint32_t) +
              in_flat_.size() * sizeof(InputEdge) +
              out_flat_.size() * sizeof(OutputEdge);
    b.spill = spillBytes();
    return b;
}

std::size_t
StateSpace::spillBytes() const
{
    return spill_ == nullptr ? 0 : spill_->bytes();
}

std::string
StateSpace::describeState(std::uint32_t s) const
{
    std::ostringstream os;
    os << "state " << s << " (budget " << budget_[s] << ")\n"
       << decodeState(s).toString();
    return os.str();
}

}  // namespace graphiti
