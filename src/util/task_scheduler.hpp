// Dependency-counted task-graph scheduler for irregular-DAG parallelism.
//
// The level-barrier wavefront ("run level L, join, run level L+1") leaves
// workers idle whenever a level is narrower than the machine: a deep chain
// with a few nets per level serializes everything on the barrier. This
// scheduler runs the whole ready frontier instead, Galois-style: every task
// carries an atomic count of unfinished fanin tasks, a finishing task
// decrements its fanouts and enqueues any that hit zero, and workers pull
// from per-worker deques (LIFO for locality) with FIFO work-stealing when
// their own deque drains. No barrier ever forms — a task starts the moment
// its last dependency finishes.
//
// Determinism contract: the scheduler guarantees only that a task runs
// after all its fanins and exactly once. Callers that need bit-identical
// results at any thread count (every design-level noise run does) must make
// each task write slot-addressed outputs and read nothing but its fanins'
// slots; then completion order cannot change any value.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace sna::util {

class CancelToken;
class ThreadPool;

/// A dependency DAG over tasks 0..n-1. fanout[i] lists the tasks that
/// cannot start until i finishes; faninCount[i] is the number of tasks i
/// waits for (the in-degree under the same edge set). The graph must be
/// acyclic — runTaskGraph validates and throws LogicError on a cycle.
struct TaskGraph {
    std::vector<std::vector<int>> fanout;
    std::vector<int> faninCount;

    int size() const { return static_cast<int>(faninCount.size()); }
};

/// Counters from one runTaskGraph call, for bench observability.
struct SchedulerStats {
    /// Worker count the run actually used (pool size, or 1 when serial) —
    /// distinct from the *requested* thread count, which may be 0 ("auto").
    int workers = 0;
    std::size_t tasksExecuted = 0;  ///< == graph.size() on success
    std::size_t steals = 0;  ///< tasks taken from another worker's deque
    /// High-water mark of the global ready frontier (tasks enqueued across
    /// every deque at one instant). 1 on a pure chain; ~width of the
    /// widest wave on a level-structured graph.
    std::size_t maxReadyDepth = 0;
    /// Per-worker fraction of its wall time spent inside task bodies
    /// (1.0 = never idle). One entry per pool worker; {1.0} when serial.
    std::vector<double> busyFraction;
    /// True when the run observed a tripped CancelToken: some bodies were
    /// skipped (or interrupted) and the run drained without executing them.
    bool cancelled = false;
    /// Bodies not run to completion because of cancellation (skipped
    /// outright, or unwound by CancelledError mid-body). On a cancelled
    /// run tasksExecuted + skippedTasks == graph.size(); on an uncancelled
    /// run skippedTasks == 0 and tasksExecuted keeps its historical
    /// meaning (== graph.size(), even down the exception drain path).
    std::size_t skippedTasks = 0;
};

/// Execute run(i) for every task of `graph`, each after all its fanins.
///
/// With `pool == nullptr` or a single-worker pool the tasks run inline in
/// deterministic Kahn order (ready queue FIFO, seeded and relaxed in index
/// order). Otherwise every pool worker runs a scheduling loop: own deque
/// first (newest-first — the task just unlocked, its inputs still warm),
/// then round-robin steals (oldest-first), then a condition-variable nap
/// until work appears or the run drains. The pool must be otherwise idle;
/// completion is detected with ThreadPool::wait().
///
/// Exceptions: the first exception thrown by any task is rethrown on the
/// calling thread after the run drains; once a task has thrown, the bodies
/// of not-yet-started tasks are skipped (their dependents still unlock, so
/// the run terminates). Throws LogicError if the graph has a cycle.
///
/// Cancellation: with a non-null `cancel`, every body runs inside a
/// CancelScope (so deep loops can pollCancellation()), and once the token
/// stops, remaining bodies are skipped while the graph still drains. A
/// cancelled run returns normally with stats.cancelled = true — it does
/// NOT throw — so the caller can harvest completed slots. CancelledError
/// thrown by a body counts the task as skipped, not failed. Coherence
/// guarantee for partial results: a dependent's pre-body check
/// happens-after its fanin's skip decision (deque mutex + pending
/// fetch_sub), so no executed task ever has a skipped fanin.
SchedulerStats runTaskGraph(const TaskGraph& graph,
                            const std::function<void(int)>& run,
                            ThreadPool* pool = nullptr,
                            const CancelToken* cancel = nullptr);

/// An induced subgraph of a TaskGraph plus the mapping back to the full
/// graph's task ids. Running `graph` with `run(fullId[sub])` executes
/// exactly the kept tasks, each after all its *kept* fanins.
struct RestrictedTaskGraph {
    TaskGraph graph;
    std::vector<int> fullId;  ///< sub id -> original task id, ascending
};

/// Induce the subgraph of `graph` on the tasks with keep[id] != 0 —
/// incremental re-analysis runs only the dirty cone this way. Edges
/// survive only when both endpoints are kept; a dropped intermediate task
/// does NOT splice its fanins to its fanouts, so `keep` must be closed
/// under "downstream of a kept task" for dependency order to be complete
/// (the dirty-cone marking guarantees this by construction). Sub ids are
/// assigned in ascending full-id order, so any topological numbering of
/// the full graph carries over to the restriction.
RestrictedTaskGraph restrictTaskGraph(const TaskGraph& graph,
                                      const std::vector<char>& keep);

}  // namespace sna::util
