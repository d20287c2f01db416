/**
 * @file
 * Workspace: a bounded, best-fit arena of RnsPolynomial coefficient
 * buffers for the unified kernel/dispatch layer.
 *
 * The hot FHE paths (hoist, key-switch tails, ModUp/ModDown staging,
 * BSGS accumulators) are steady-state: every call wants the same few
 * buffer shapes — (level x N), (union-basis x N), (digit x N). Before
 * this arena each call re-allocated those from the general-purpose
 * allocator; now exec::Dispatcher checks them out, the RAII lease
 * returns the storage on destruction, and the next call reuses it
 * without an allocator round-trip. This is the CPU stand-in for the
 * paper's preallocated device working set (SIV-B "Data Reuse"): VRAM
 * scratch is carved out once and cycled, never malloc'd per kernel.
 *
 * Free buffers are sharded by thread so concurrent dispatches do not
 * contend on one lock, and each shard indexes them by capacity (in u64
 * coefficients): checkout() takes the smallest buffer that fits, the
 * oldest among equals, in O(log n), preferring the calling thread's
 * shard, then stealing, then allocating. Release returns to the
 * caller's shard.
 *
 * The arena is bounded. It records the most bytes ever leased out at
 * once; when a returned or donated buffer pushes the pooled bytes
 * (summed over all shards) above that mark, the least recently
 * returned buffers are freed first. Donations (the storage an in-place
 * op replaces) would otherwise grow the pool without limit, and a
 * donated buffer of an unused shape ages out instead of crowding out
 * the shapes that recur. alloc/reuse counters are process-visible so
 * benches can assert steady-state reuse (>90% on warm rotateManyBatch
 * / nn::Sequential runs).
 */

#ifndef TENSORFHE_EXEC_WORKSPACE_HH
#define TENSORFHE_EXEC_WORKSPACE_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rns/rns_poly.hh"

namespace tensorfhe::exec
{

class Workspace
{
  public:
    explicit Workspace(const rns::RnsTower &tower) : tower_(&tower) {}

    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /**
     * Leak check: with lease tracking on (default in debug builds),
     * a workspace destroyed while leases are still outstanding names
     * every site that failed to return its buffer on stderr instead
     * of silently dropping them — a leaked lease is a bug in the
     * dispatch layer's exception safety.
     */
    ~Workspace();

    /**
     * RAII lease of one pooled polynomial. The wrapped RnsPolynomial
     * is usable like any other; on destruction its storage returns to
     * the arena. Move-only.
     */
    class Pooled
    {
      public:
        Pooled() = default;
        /** `bytes`: the buffer size counted as leased at checkout. */
        Pooled(Workspace *ws, rns::RnsPolynomial p, const char *site,
               u64 bytes)
            : ws_(ws), poly_(std::move(p)), site_(site), bytes_(bytes)
        {}
        Pooled(Pooled &&o) noexcept
            : ws_(o.ws_), poly_(std::move(o.poly_)), site_(o.site_),
              bytes_(o.bytes_)
        {
            o.ws_ = nullptr;
        }
        Pooled &
        operator=(Pooled &&o) noexcept
        {
            if (this != &o) {
                releaseToArena();
                ws_ = o.ws_;
                poly_ = std::move(o.poly_);
                site_ = o.site_;
                bytes_ = o.bytes_;
                o.ws_ = nullptr;
            }
            return *this;
        }
        Pooled(const Pooled &) = delete;
        Pooled &operator=(const Pooled &) = delete;
        ~Pooled() { releaseToArena(); }

        rns::RnsPolynomial &operator*() { return poly_; }
        const rns::RnsPolynomial &operator*() const { return poly_; }
        rns::RnsPolynomial *operator->() { return &poly_; }
        const rns::RnsPolynomial *operator->() const { return &poly_; }
        rns::RnsPolynomial *get() { return &poly_; }
        const rns::RnsPolynomial *get() const { return &poly_; }

        /** Detach the polynomial; its storage will NOT be recycled. */
        rns::RnsPolynomial
        detach()
        {
            if (ws_) {
                ws_->endLease(site_, bytes_);
                ws_ = nullptr;
            }
            return std::move(poly_);
        }

      private:
        void
        releaseToArena()
        {
            if (ws_) {
                ws_->endLease(site_, bytes_);
                ws_->recycle(std::move(poly_));
                ws_ = nullptr;
            }
        }

        Workspace *ws_ = nullptr;
        rns::RnsPolynomial poly_;
        const char *site_ = "unnamed";
        u64 bytes_ = 0;
    };

    /**
     * Check out a zeroed polynomial over `limbs` in `domain`. Reuses
     * the smallest pooled buffer of sufficient capacity when one is
     * available (no allocator call); otherwise allocates fresh and
     * counts it.
     * `site` names the checkout for the lease tracker's leak report.
     */
    Pooled zeros(const std::vector<std::size_t> &limbs,
                 rns::Domain domain, const char *site = "unnamed");

    /**
     * Arena traffic counters (cumulative since resetStats) and the
     * footprint gauges (pooledBytes is current; peakLeasedBytes, the
     * pool's bound, survives resetStats).
     */
    struct Stats
    {
        u64 allocs = 0;          ///< checkouts served by the allocator
        u64 reuses = 0;          ///< checkouts served from the pool
        u64 returns = 0;         ///< buffers handed back, evicted too
        u64 evictions = 0;       ///< pooled buffers freed to stay in bound
        u64 pooledBytes = 0;     ///< bytes held in the free lists now
        u64 peakLeasedBytes = 0; ///< most bytes ever leased at once

        double
        reuseRate() const
        {
            u64 total = allocs + reuses;
            return total == 0
                ? 0.0
                : static_cast<double>(reuses)
                    / static_cast<double>(total);
        }
    };

    /**
     * Donate a dead polynomial's storage to the pool (e.g. the
     * pre-rescale components an in-place op replaces), so the next
     * checkout of that shape is allocator-free. Like any return it
     * may evict the least recently returned buffers to keep the pool
     * within its bound.
     */
    void
    donate(rns::RnsPolynomial &&p)
    {
        recycle(std::move(p));
    }

    /**
     * Pre-stage `count` pooled buffers of the given shape: each is
     * checked out (paying the allocator once, counted as an alloc)
     * and immediately returned, so the next `count` concurrent
     * checkouts of that shape — or any smaller one, via best fit —
     * are served from the pool. The graph executor walks a
     * compiled graph's scratch shapes through this before the first
     * run, so even a COLD graph execution hits steady-state reuse.
     */
    void prestage(const std::vector<std::size_t> &limbs,
                  rns::Domain domain, std::size_t count);

    Stats stats() const;
    void resetStats();

    /**
     * Drop every pooled buffer (tests use this to force cold state);
     * pooledBytes returns to 0.
     */
    void trim();

    /**
     * Toggle lease-site tracking (on by default in debug builds;
     * off in release, where the per-checkout map update is real hot-
     * path cost). Tests turn it on to assert the engine returns every
     * lease across fault unwinding.
     */
    void
    setLeaseTracking(bool on)
    {
        trackLeases_.store(on, std::memory_order_relaxed);
    }

    /** Leases currently checked out (0 unless tracking was on). */
    std::size_t outstandingLeases() const;

    /** Outstanding lease count per site (tracking only). */
    std::map<std::string, std::size_t> outstandingBySite() const;

    const rns::RnsTower &tower() const { return *tower_; }

  private:
    friend class Pooled;

    /**
     * Return a dead polynomial's storage to the caller's shard, then
     * evict down to the bound.
     */
    void recycle(rns::RnsPolynomial &&p);

    void beginLease(const char *site, u64 bytes);
    void endLease(const char *site, u64 bytes);

    /** Free least recently returned buffers until pooled <= peak. */
    void evictToBound();

    static constexpr std::size_t kShards = 8;
    static std::size_t shardIndex();

    struct FreeBuffer
    {
        std::vector<u64> buf;
        u64 seq = 0; ///< arena-wide return order
    };
    /** Capacity (u64 coefficients) -> buffer; equal keys keep order. */
    using ByCapacity = std::multimap<std::size_t, FreeBuffer>;

    struct Shard
    {
        std::mutex mu;
        ByCapacity byCapacity;
        /** The same buffers by return order, oldest first. */
        std::map<u64, ByCapacity::iterator> byAge;
    };

    const rns::RnsTower *tower_;
    mutable Shard shards_[kShards];
    std::atomic<u64> allocs_{0};
    std::atomic<u64> reuses_{0};
    std::atomic<u64> returns_{0};
    std::atomic<u64> evictions_{0};
    std::atomic<u64> nextSeq_{0};
    std::atomic<u64> pooledBytes_{0};
    std::atomic<u64> leasedBytes_{0};
    std::atomic<u64> peakLeasedBytes_{0};

#ifdef NDEBUG
    std::atomic<bool> trackLeases_{false};
#else
    std::atomic<bool> trackLeases_{true};
#endif
    mutable std::mutex leaseMu_;
    std::map<std::string, std::size_t> leases_;
};

} // namespace tensorfhe::exec

#endif // TENSORFHE_EXEC_WORKSPACE_HH
