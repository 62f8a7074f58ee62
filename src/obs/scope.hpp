#ifndef GRAPHITI_OBS_SCOPE_HPP
#define GRAPHITI_OBS_SCOPE_HPP

/**
 * @file
 * The instrumentation entry point: an obs::Scope bundles the metrics
 * registry with optional trace/waveform sinks, and a thread-local
 * "current scope" lets deeply nested layers (the e-graph oracle, the
 * state-space explorer) record without threading a pointer through
 * every signature.
 *
 * Near-zero cost when nothing observes: every call site in
 * sim/rewrite/refine goes through the GRAPHITI_OBS_* macros below,
 * which cost one thread-local load and a branch when no scope is
 * installed.
 *
 * Usage:
 *
 *     obs::Scope scope;
 *     scope.attachTrace(std::make_shared<obs::PerfettoTraceSink>());
 *     obs::ScopedInstall install(&scope);
 *     ... run compiler / simulator / checker ...
 *     scope.metrics().toJson();
 */

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "obs/vprobe.hpp"

namespace graphiti::obs {

/** One observation context: a registry plus optional sinks. */
class Scope
{
  public:
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    /** The trace sink; nullptr when event tracing is off. */
    TraceSink* trace() const { return trace_.get(); }
    void attachTrace(std::shared_ptr<TraceSink> sink)
    {
        trace_ = std::move(sink);
    }

    /** The waveform writer; nullptr when VCD capture is off. */
    VcdWriter* vcd() const { return vcd_.get(); }
    void attachVcd(std::shared_ptr<VcdWriter> vcd)
    {
        vcd_ = std::move(vcd);
    }

    /** The provenance tracker; nullptr when hop logging is off. */
    ProvenanceTracker* provenance() const { return provenance_.get(); }
    void attachProvenance(std::shared_ptr<ProvenanceTracker> tracker)
    {
        provenance_ = std::move(tracker);
    }

    /** The live verification probe; nullptr when nothing tails
     * progress (docs/verification_observability.md). */
    VerifyProbe* verifyProbe() const { return vprobe_.get(); }
    void attachVerifyProbe(std::shared_ptr<VerifyProbe> probe)
    {
        vprobe_ = std::move(probe);
    }

  private:
    MetricsRegistry metrics_;
    std::shared_ptr<TraceSink> trace_;
    std::shared_ptr<VcdWriter> vcd_;
    std::shared_ptr<ProvenanceTracker> provenance_;
    std::shared_ptr<VerifyProbe> vprobe_;
};

/** The thread's current scope; nullptr when nothing observes. */
Scope* current();

/** Install @p scope as current (nullptr allowed); returns previous. */
Scope* install(Scope* scope);

/** RAII install/restore of the thread-local current scope. */
class ScopedInstall
{
  public:
    explicit ScopedInstall(Scope* scope) : previous_(install(scope)) {}
    ~ScopedInstall() { install(previous_); }

    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

  private:
    Scope* previous_;
};

/** Timer helper the macro expands to: inert when nothing observes. */
inline ScopedTimer
timerFor(Scope* scope, const char* name)
{
    if (scope == nullptr)
        return {};
    return scope->metrics().timer(name);
}

}  // namespace graphiti::obs

/** Increment a counter on the current scope. */
#define GRAPHITI_OBS_COUNT(name, delta)                                  \
    do {                                                                 \
        if (::graphiti::obs::Scope* obs_scope_ =                         \
                ::graphiti::obs::current())                              \
            obs_scope_->metrics().add((name), (delta));                  \
    } while (0)

/** Set a gauge on the current scope. */
#define GRAPHITI_OBS_GAUGE(name, value)                                  \
    do {                                                                 \
        if (::graphiti::obs::Scope* obs_scope_ =                         \
                ::graphiti::obs::current())                              \
            obs_scope_->metrics().set((name),                            \
                                      static_cast<double>(value));       \
    } while (0)

/** Raise a high-water-mark gauge on the current scope. */
#define GRAPHITI_OBS_GAUGE_MAX(name, value)                              \
    do {                                                                 \
        if (::graphiti::obs::Scope* obs_scope_ =                         \
                ::graphiti::obs::current())                              \
            obs_scope_->metrics().setMax((name),                         \
                                         static_cast<double>(value));    \
    } while (0)

/** Record one duration observation on the current scope. */
#define GRAPHITI_OBS_OBSERVE(name, seconds)                              \
    do {                                                                 \
        if (::graphiti::obs::Scope* obs_scope_ =                         \
                ::graphiti::obs::current())                              \
            obs_scope_->metrics().observe((name), (seconds));            \
    } while (0)

/** Declare a scoped timer variable feeding the current scope. */
#define GRAPHITI_OBS_TIMER(var, name)                                    \
    ::graphiti::obs::ScopedTimer var =                                   \
        ::graphiti::obs::timerFor(::graphiti::obs::current(), (name))

/** Invoke one VerifyProbe method on the current scope's probe, e.g.
 * GRAPHITI_OBS_VPROBE(recordPark()). No-op when nothing observes. */
#define GRAPHITI_OBS_VPROBE(call)                                        \
    do {                                                                 \
        if (::graphiti::obs::Scope* obs_scope_ =                         \
                ::graphiti::obs::current())                              \
            if (::graphiti::obs::VerifyProbe* obs_probe_ =               \
                    obs_scope_->verifyProbe())                           \
                obs_probe_->call;                                        \
    } while (0)

/** Emit a counter-track sample to the current scope's trace sink. */
#define GRAPHITI_OBS_TRACK(track, cycle, value)                          \
    do {                                                                 \
        ::graphiti::obs::Scope* obs_scope_ =                             \
            ::graphiti::obs::current();                                  \
        if (obs_scope_ != nullptr && obs_scope_->trace() != nullptr)     \
            obs_scope_->trace()->counter(                                \
                (track), static_cast<double>(cycle),                     \
                static_cast<double>(value));                             \
    } while (0)

#endif  // GRAPHITI_OBS_SCOPE_HPP
