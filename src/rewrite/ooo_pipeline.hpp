#ifndef GRAPHITI_REWRITE_OOO_PIPELINE_HPP
#define GRAPHITI_REWRITE_OOO_PIPELINE_HPP

/**
 * @file
 * The five-phase out-of-order transformation of section 3.1.
 *
 * 1. *Normalize*: combine the loop's Mux/Branch/Init pairs into a
 *    single guarded loop (figure 3a rewrites), regrouping the
 *    condition fork tree with oracle-generated fork rewrites.
 * 2. *Cleanup*: eliminate the Split/Join/Fork residue (figure 3b).
 * 3. *Pure generation* (section 3.2): collapse the loop body into a
 *    single Pure + Split, guided by the e-graph oracle; refuse loops
 *    whose bodies perform stores (the bicg guard of section 6.2).
 * 4. *Main rewrite* (figure 3d, section 5): Mux -> tagged Merge with
 *    a Tagger/Untagger around the loop.
 * 5. *Re-expansion*: replay the pure-generation rewrite backwards so
 *    the final circuit contains the original operators (now inside
 *    the tagged region).
 *
 * The driver is the untrusted oracle of the paper: it only decides
 * *where* rewrites apply; every graph mutation goes through the
 * verified rewriting function.
 */

#include <string>
#include <vector>

#include "rewrite/engine.hpp"
#include "rewrite/loop_rewrite.hpp"
#include "rewrite/pure_gen.hpp"

namespace graphiti {

/** Per-loop outcome of the pipeline. */
struct LoopTransformReport
{
    std::string header_mux;  ///< original loop-header mux (first of group)
    bool transformed = false;
    /** Why the loop was left alone (side effects, shape). Empty when
     * transformed. */
    std::string refusal;
    std::string body_fn;      ///< registered body function
    int body_latency = 0;     ///< critical path of the absorbed body
    std::size_t term_size_before = 0;
    std::size_t term_size_after = 0;
};

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Tag count for the inserted Tagger/Untagger. */
    int num_tags = 8;
    /** Replay pure generation backwards at the end (phase 5). */
    bool reexpand = true;
    /** Record the graph after each phase (the figure 4 walkthrough). */
    bool keep_snapshots = false;
    /**
     * Transactional guard: installed on the pipeline's engine, so
     * every rewrite application is validated and rolled back on
     * failure (see RewriteEngine::setPostCheck). Vetoed applications
     * surface in PipelineResult::rollbacks.
     */
    PostCheck post_check;
};

/** A labelled intermediate graph (with keep_snapshots). */
struct PipelineSnapshot
{
    std::string phase;
    ExprHigh graph;
};

/** Pipeline outcome. */
struct PipelineResult
{
    ExprHigh graph;
    EngineStats stats;
    std::vector<LoopTransformReport> loops;
    /** One entry per completed phase when keep_snapshots is set
     * (figure 4's a-d sequence). */
    std::vector<PipelineSnapshot> snapshots;
    /** Applications vetoed by the post-check (empty when healthy). */
    std::vector<RewriteRollback> rollbacks;
};

/**
 * Version of the pipeline's behaviour, folded into the compile-entry
 * key (guard::catalogFingerprint). Bump it with any change that
 * alters the output circuit or report of some input, so compile
 * entries an older build committed to a persistent store miss
 * instead of answering for the new pipeline.
 */
inline constexpr int kOooPipelineVersion = 1;

/**
 * Run the full out-of-order pipeline on every Mux/Branch loop of
 * @p graph. Loops that cannot be transformed soundly are reported and
 * left untouched (the graph still improves where possible).
 */
Result<PipelineResult> runOooPipeline(const ExprHigh& graph,
                                      Environment& env,
                                      const PipelineOptions& options = {});

}  // namespace graphiti

#endif  // GRAPHITI_REWRITE_OOO_PIPELINE_HPP
