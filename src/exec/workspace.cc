#include "exec/workspace.hh"

#include <functional>
#include <thread>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace tensorfhe::exec
{

std::size_t
Workspace::shardIndex()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id())
        % kShards;
}

Workspace::~Workspace()
{
    if (!trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::size_t total = 0;
    for (const auto &[site, count] : leases_)
        total += count;
    if (total == 0)
        return;
    TFHE_LOG_WARN("exec", "Workspace destroyed with ", total,
                  " outstanding lease(s)");
    for (const auto &[site, count] : leases_)
        if (count > 0)
            TFHE_LOG_WARN("exec", "  ", site, ": ", count);
}

void
Workspace::beginLease(const char *site, u64 bytes)
{
    u64 leased =
        leasedBytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    u64 peak = peakLeasedBytes_.load(std::memory_order_relaxed);
    while (leased > peak
           && !peakLeasedBytes_.compare_exchange_weak(
               peak, leased, std::memory_order_relaxed)) {
    }
    if (!trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    ++leases_[site];
}

void
Workspace::endLease(const char *site, u64 bytes)
{
    leasedBytes_.fetch_sub(bytes, std::memory_order_relaxed);
    if (!trackLeases_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(leaseMu_);
    auto it = leases_.find(site);
    if (it != leases_.end() && it->second > 0)
        --it->second;
}

std::size_t
Workspace::outstandingLeases() const
{
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::size_t total = 0;
    for (const auto &[site, count] : leases_)
        total += count;
    return total;
}

std::map<std::string, std::size_t>
Workspace::outstandingBySite() const
{
    std::lock_guard<std::mutex> lock(leaseMu_);
    std::map<std::string, std::size_t> out;
    for (const auto &[site, count] : leases_)
        if (count > 0)
            out.emplace(site, count);
    return out;
}

Workspace::Pooled
Workspace::zeros(const std::vector<std::size_t> &limbs,
                 rns::Domain domain, const char *site)
{
    TFHE_FAULT_POINT("workspace/alloc");
    std::size_t need = limbs.size() * tower_->n();
    std::size_t start = shardIndex();
    // Prefer the caller's shard; steal from the others before paying
    // the allocator.
    for (std::size_t probe = 0; probe < kShards; ++probe) {
        Shard &shard = shards_[(start + probe) % kShards];
        std::vector<u64> buf;
        u64 bytes = 0;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            // Best fit: the smallest buffer that fits (an oversized
            // batch buffer should not be burned on a single-limb
            // checkout), the oldest among equal capacities.
            auto it = shard.byCapacity.lower_bound(need);
            if (it == shard.byCapacity.end())
                continue;
            buf = std::move(it->second.buf);
            shard.byAge.erase(it->second.seq);
            shard.byCapacity.erase(it);
            bytes = buf.capacity() * sizeof(u64);
            pooledBytes_.fetch_sub(bytes, std::memory_order_relaxed);
        }
        // Count the reuse only once the polynomial owns the buffer:
        // if construction throws during stack unwinding elsewhere,
        // the counters must not claim a checkout that never happened
        // (alloc/reuse totals are what the steady-state benches and
        // the race stress assert against).
        Pooled out(this,
                   rns::RnsPolynomial(*tower_, limbs, domain,
                                      std::move(buf)),
                   site, bytes);
        reuses_.fetch_add(1, std::memory_order_relaxed);
        beginLease(site, bytes);
        return out;
    }
    u64 bytes = need * sizeof(u64);
    Pooled out(this, rns::RnsPolynomial(*tower_, limbs, domain), site,
               bytes);
    allocs_.fetch_add(1, std::memory_order_relaxed);
    beginLease(site, bytes);
    return out;
}

void
Workspace::recycle(rns::RnsPolynomial &&p)
{
    std::vector<u64> buf = p.takeStorage();
    if (buf.capacity() == 0)
        return;
    Shard &shard = shards_[shardIndex()];
    {
        // pooledBytes_ changes only under the lock of the shard that
        // gains or loses the buffer, so an eviction on another thread
        // can never subtract a buffer before it was added.
        std::lock_guard<std::mutex> lock(shard.mu);
        u64 seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
        std::size_t cap = buf.capacity();
        auto it = shard.byCapacity.emplace(
            cap, FreeBuffer{std::move(buf), seq});
        try {
            shard.byAge.emplace(seq, it);
        } catch (...) {
            // Keep the two indexes in step; the buffer is dropped.
            shard.byCapacity.erase(it);
            throw;
        }
        pooledBytes_.fetch_add(cap * sizeof(u64),
                               std::memory_order_relaxed);
    }
    // After the insert: a throwing insert (allocator pressure) must
    // not leave a counted return with no pooled buffer. recycle()
    // runs inside Pooled destructors — often during stack unwinding —
    // so the counter update is the last, non-throwing step.
    returns_.fetch_add(1, std::memory_order_relaxed);
    evictToBound();
}

void
Workspace::evictToBound()
{
    while (pooledBytes_.load(std::memory_order_relaxed)
           > peakLeasedBytes_.load(std::memory_order_relaxed)) {
        // The least recently returned buffer, across all shards. Each
        // shard is locked on its own (never two at once); a buffer
        // that another thread takes meanwhile just moves the search
        // on to the next oldest.
        Shard *oldest = nullptr;
        u64 oldest_seq = 0;
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            if (shard.byAge.empty())
                continue;
            u64 seq = shard.byAge.begin()->first;
            if (!oldest || seq < oldest_seq) {
                oldest = &shard;
                oldest_seq = seq;
            }
        }
        if (!oldest)
            return;
        std::vector<u64> victim;
        {
            std::lock_guard<std::mutex> lock(oldest->mu);
            if (oldest->byAge.empty())
                continue;
            auto age = oldest->byAge.begin();
            victim = std::move(age->second->second.buf);
            oldest->byCapacity.erase(age->second);
            oldest->byAge.erase(age);
            pooledBytes_.fetch_sub(victim.capacity() * sizeof(u64),
                                   std::memory_order_relaxed);
        }
        // `victim` is freed at the end of this pass, outside the lock.
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Workspace::prestage(const std::vector<std::size_t> &limbs,
                    rns::Domain domain, std::size_t count)
{
    // Checking out all `count` leases before releasing any forces
    // `count` DISTINCT buffers into the pool (a checkout/release loop
    // would recycle one buffer `count` times).
    std::vector<Pooled> held;
    held.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        held.push_back(zeros(limbs, domain, "exec/prestage"));
}

Workspace::Stats
Workspace::stats() const
{
    Stats s;
    s.allocs = allocs_.load(std::memory_order_relaxed);
    s.reuses = reuses_.load(std::memory_order_relaxed);
    s.returns = returns_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.pooledBytes = pooledBytes_.load(std::memory_order_relaxed);
    s.peakLeasedBytes =
        peakLeasedBytes_.load(std::memory_order_relaxed);
    return s;
}

void
Workspace::resetStats()
{
    allocs_.store(0, std::memory_order_relaxed);
    reuses_.store(0, std::memory_order_relaxed);
    returns_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
}

void
Workspace::trim()
{
    for (auto &shard : shards_) {
        ByCapacity dropped; // freed after the lock is released
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[cap, free] : shard.byCapacity)
            pooledBytes_.fetch_sub(free.buf.capacity() * sizeof(u64),
                                   std::memory_order_relaxed);
        dropped.swap(shard.byCapacity);
        shard.byAge.clear();
    }
}

} // namespace tensorfhe::exec
