/**
 * @file
 * A small persistent thread pool exposing a dynamic work-queue.
 *
 * This is the CUDA-core substitute of the reproduction: batched FHE
 * kernels shard their (slot x limb) iteration space across the pool
 * exactly where the paper shards CTAs across SMs. Indices are pulled
 * from a shared atomic cursor in chunks, so heterogeneous tasks (a
 * GEMM NTT next to an elementwise kernel) load-balance the way a
 * hardware scheduler drains a CTA queue.
 */

#ifndef TENSORFHE_COMMON_THREAD_POOL_HH
#define TENSORFHE_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tensorfhe
{

class ThreadPool
{
  public:
    /** Default worker count: hardware_concurrency - 1. */
    static constexpr std::size_t kAutoWorkers =
        static_cast<std::size_t>(-1);

    /**
     * @param workers number of worker threads; kAutoWorkers =
     *        hardware_concurrency - 1, 0 = no workers (every dispatch
     *        runs inline on the caller — a true 1-lane serial pool).
     */
    explicit ThreadPool(std::size_t workers = kAutoWorkers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes = workers + the calling thread. */
    std::size_t lanes() const { return workers_.size() + 1; }

    /**
     * Run fn(i) for i in [begin, end), sharded dynamically across all
     * lanes: lanes pull fixed-size index chunks from a shared cursor
     * until the range drains. Blocks until every index is done.
     * Reentrant calls from inside fn run sequentially (no nested
     * parallelism), as do calls while another thread drives the pool.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Flattened 2D work-queue: run fn(i, j) for every pair in
     * [0, outer) x [0, inner). This is the (batch-slot x RNS-tower)
     * dispatch shape of the batched execution engine; the pairs share
     * one cursor so an expensive tower on one slot cannot serialize
     * the remaining slots.
     */
    void parallelFor2D(std::size_t outer, std::size_t inner,
                       const std::function<void(std::size_t, std::size_t)> &fn);

    /** Process-wide pool (lazily constructed). */
    static ThreadPool &global();

  private:
    struct Batch
    {
        std::size_t end = 0;
        std::size_t chunk = 1;
        const std::function<void(std::size_t)> *fn = nullptr;
    };

    void workerLoop();
    void drainBatch(const Batch &b);

    std::vector<std::thread> workers_;
    std::mutex mtx_;
    std::mutex dispatchMtx_; // serializes top-level parallelFor calls
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    Batch batch_;
    std::atomic<std::size_t> cursor_{0};
    std::size_t generation_ = 0;     // bumped per parallelFor
    std::size_t activeDrainers_ = 0; // workers currently inside a batch
    bool batchOpen_ = false;         // workers may still join batch_
    bool stop_ = false;
};

} // namespace tensorfhe

#endif // TENSORFHE_COMMON_THREAD_POOL_HH
