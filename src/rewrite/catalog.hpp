#ifndef GRAPHITI_REWRITE_CATALOG_HPP
#define GRAPHITI_REWRITE_CATALOG_HPP

/**
 * @file
 * The rewrite catalog of figure 3.
 *
 * Combining rewrites (figure 3a) normalize a loop guarded by several
 * Mux/Branch pairs into one guarded by a single pair, at the cost of
 * extra synchronization (Joins) — the effect discussed in section 6.2.
 * Elimination rewrites (figure 3b) clean up the Split/Join/Fork
 * residue. The main out-of-order loop rewrite (figure 3d) is in
 * loop_rewrite.hpp.
 *
 * Each entry is a RewriteDef whose refinement obligation
 * (rhs ⊑ lhs) is dischargeable with verifyRewrite; the catalog test
 * does so for every verifiable entry. Wire rewrites (empty rhs) have
 * no module denotation and stay unverified, mirroring the paper's
 * minor-rewrite status.
 */

#include <vector>

#include "rewrite/rewrite.hpp"

namespace graphiti::catalog {

/** Figure 3a: two Muxes with a common forked condition -> Join + one
 * Mux + Split. */
RewriteDef combineMux();

/** Figure 3a variant: two Branches with a common forked condition ->
 * Join + one Branch + two Splits. */
RewriteDef combineBranch();

/** Two Inits fed from one Fork -> one Init + Fork. */
RewriteDef combineInit();

/** Figure 3b: Split immediately re-Joined -> wire. */
RewriteDef splitJoinElim();

/** Figure 3b: Join immediately re-Split -> wires. */
RewriteDef joinSplitElim();

/** Fork with one output sunk -> wire (two variants by sunk side). */
RewriteDef forkSinkElim0();
RewriteDef forkSinkElim1();

/** Buffer -> wire. */
RewriteDef bufferElim();

/** Fork tree reassociation: (a, (b, c)) -> ((a, b), c). */
RewriteDef forkAssocLeft();

/** Fork tree reassociation: ((a, b), c) -> (a, (b, c)). */
RewriteDef forkAssocRight();

/** Fork output swap: (a, b) -> (b, a). */
RewriteDef forkSwap();

/** Split an n-ary fork into fork2 + fork(n-1), for n >= 3. */
RewriteDef forkSplit(int arity);

/** Figure 5d: a Fork becomes Pure(dup) followed by a Split. */
RewriteDef forkToPureDup();

/** Split with one side sunk -> Pure(snd) / Pure(fst). */
RewriteDef splitSink0();
RewriteDef splitSink1();

/** Merge is commutative: swap its inputs. */
RewriteDef mergeComm();

/** Two nested binary Joins -> one ternary Join (right-nested pairs
 * coincide), and its inverse. */
RewriteDef joinFuse();
RewriteDef joinUnfuse();

/** Introduction rewrite: one buffer becomes two in sequence. */
RewriteDef bufferDeepen();

/** All catalog entries (fork splits for arities 3..8 included). */
std::vector<RewriteDef> allRewrites();

/**
 * allRewrites(), built and checked with RewriteDef::validate() once
 * per process. The pipeline's engine applies these rules and the
 * compile-cache fingerprint hashes them. Throws std::logic_error when
 * a rule is malformed or two share a name (a defect of the catalog
 * itself, caught by the catalog tests).
 */
const std::vector<RewriteDef>& validatedRewrites();

}  // namespace graphiti::catalog

#endif  // GRAPHITI_REWRITE_CATALOG_HPP
