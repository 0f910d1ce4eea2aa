// The one content-addressed memo of finished evaluations.
//
// Every backend is a pure function of its query (the determinism
// contract), so a finished result keyed by an exhaustive signature of
// everything it depends on is bit-identical to recomputing it: the memo
// changes who computes, never what comes out. Two users share this one
// implementation:
//
//   - the evaluation service memoizes whole (backend, variant-slice)
//     GridOutcomes across concurrent requests (service/service.hpp), keyed
//     by query_signature() plus the slice suffix (rates, warm-start flag,
//     grid offset);
//   - network-fp memoizes its inner single-cell solves within one plan or
//     one evaluate() call (network/coupling.hpp), so the identical cells
//     of a homogeneous lattice — and of every lattice of a campaign at the
//     same speed and rate — cost one solve.
//
// Concurrency protocol (leader/follower with promotion):
//   acquire(sig) -> Ticket holding one ref.
//     - first arrival becomes the LEADER: evaluates, then publish() or
//       abandon() (e.g. its request was cancelled mid-slice).
//     - later arrivals are FOLLOWERS: wait() blocks until the value is
//       published (returns a copy) or the leader abandoned with no value —
//       then ONE waiter is promoted (wait() returns nullopt and the ticket
//       turns leader), so an abandoned entry never strands its waiters.
//   Dropping the Ticket releases the ref; a leader that neither published
//   nor abandoned abandons implicitly (exception safety).
//   get_or_compute() runs that whole round trip for one lookup.
//
// A follower's wait cannot deadlock a thread pool as long as lookups
// happen only inside running work: the leader then is itself running, not
// queued behind the blocked follower.
//
// Completed entries stay cached; once the memo exceeds its capacity, idle
// entries (ready, zero refs) are evicted least recently used first.
// active_refs() must drain to zero when no lookup is in flight.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "eval/evaluator.hpp"

namespace gprsim::eval {

template <class V>
class Memo {
    struct Entry;

public:
    /// `capacity`: idle (ready, unreferenced) entries retained for reuse.
    explicit Memo(std::size_t capacity = 64) : capacity_(capacity) {}

    Memo(const Memo&) = delete;
    Memo& operator=(const Memo&) = delete;

    /// RAII reference to one memo entry; movable, not copyable.
    class Ticket {
    public:
        Ticket() = default;
        Ticket(Ticket&& other) noexcept { take(other); }
        Ticket& operator=(Ticket&& other) noexcept {
            if (this != &other) {
                release();
                take(other);
            }
            return *this;
        }
        ~Ticket() { release(); }

        Ticket(const Ticket&) = delete;
        Ticket& operator=(const Ticket&) = delete;

        /// Whether this ticket must compute the value (initial leader or
        /// promoted follower).
        bool leader() const { return leader_; }

        /// Follower: blocks until the value is published (returns a copy)
        /// or this ticket is promoted to leader (returns nullopt; leader()
        /// turns true). Calling as leader is a no-op nullopt.
        std::optional<V> wait() {
            if (memo_ == nullptr || leader_) {
                return std::nullopt;
            }
            std::unique_lock<std::mutex> lock(memo_->mutex_);
            entry_->cv.wait(lock, [this] { return entry_->ready || !entry_->computing; });
            if (entry_->ready) {
                return *entry_->value;
            }
            // Leader abandoned and nobody claimed the entry yet: this
            // waiter is promoted and must compute it.
            entry_->computing = true;
            leader_ = true;
            return std::nullopt;
        }

        /// Leader: stores the computed value and wakes every follower.
        void publish(const V& value) {
            if (memo_ == nullptr || !leader_ || settled_) {
                return;
            }
            {
                std::lock_guard<std::mutex> lock(memo_->mutex_);
                entry_->value.emplace(value);
                entry_->ready = true;
                entry_->computing = false;
            }
            settled_ = true;
            entry_->cv.notify_all();
        }

        /// Leader: give up without a value (cancelled request). One waiting
        /// follower is promoted; with no waiters the entry empties and the
        /// next acquire starts a fresh leader.
        void abandon() {
            if (memo_ == nullptr || !leader_ || settled_) {
                return;
            }
            {
                std::lock_guard<std::mutex> lock(memo_->mutex_);
                entry_->computing = false;
            }
            settled_ = true;
            leader_ = false;
            entry_->cv.notify_all();
        }

    private:
        friend class Memo;
        Ticket(Memo* memo, Entry* entry, bool leader)
            : memo_(memo), entry_(entry), leader_(leader) {}

        void take(Ticket& other) {
            memo_ = other.memo_;
            entry_ = other.entry_;
            leader_ = other.leader_;
            settled_ = other.settled_;
            other.memo_ = nullptr;
            other.entry_ = nullptr;
        }

        void release() {
            if (memo_ == nullptr) {
                return;
            }
            if (leader_ && !settled_) {
                abandon();  // exception safety: never strand the waiters
            }
            {
                std::lock_guard<std::mutex> lock(memo_->mutex_);
                --entry_->refs;
                --memo_->total_refs_;
                if (entry_->refs == 0 && !entry_->ready) {
                    // In-flight entry everyone walked away from: drop it so
                    // a later acquire starts clean instead of joining a
                    // dead leader.
                    memo_->entries_.erase(entry_->signature);
                } else {
                    memo_->evict_idle_locked();
                }
            }
            memo_ = nullptr;
            entry_ = nullptr;
        }

        Memo* memo_ = nullptr;
        Entry* entry_ = nullptr;
        bool leader_ = false;
        bool settled_ = false;  ///< leader published or abandoned
    };

    /// Acquires a reference to the entry for `signature`. `hit` reports
    /// whether the work was already available or in flight (a published
    /// value OR a join onto a computing leader).
    Ticket acquire(const std::string& signature, bool& hit) {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry& entry = entries_[signature];
        if (entry.refs == 0 && !entry.ready && !entry.computing) {
            entry.signature = signature;
        }
        ++entry.refs;
        ++total_refs_;
        entry.last_use = ++clock_;
        hit = entry.ready || entry.computing;
        const bool leads = !entry.ready && !entry.computing;
        if (leads) {
            entry.computing = true;
        }
        return Ticket(this, &entry, leads);
    }

    /// One lookup end to end: the leader (or a promoted follower) runs
    /// `compute()` and publishes its result; every other caller returns a
    /// copy of the published value. `hit`, when given, as for acquire().
    template <class Compute>
    V get_or_compute(const std::string& signature, Compute&& compute,
                     bool* hit = nullptr) {
        bool joined = false;
        Ticket ticket = acquire(signature, joined);
        if (hit != nullptr) {
            *hit = joined;
        }
        if (std::optional<V> cached = ticket.wait()) {
            return std::move(*cached);
        }
        V computed = compute();
        ticket.publish(computed);
        return computed;
    }

    /// Outstanding ticket references across all entries (0 = drained).
    std::size_t active_refs() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_refs_;
    }
    /// Entries currently in the table (ready + in-flight).
    std::size_t entries() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

private:
    struct Entry {
        std::string signature;
        int refs = 0;
        bool computing = false;  ///< a leader is (or will be) evaluating
        bool ready = false;
        std::optional<V> value;
        std::uint64_t last_use = 0;
        std::condition_variable cv;
    };

    void evict_idle_locked() {
        while (entries_.size() > capacity_) {
            auto victim = entries_.end();
            for (auto it = entries_.begin(); it != entries_.end(); ++it) {
                if (it->second.refs != 0 || !it->second.ready) {
                    continue;
                }
                if (victim == entries_.end() ||
                    it->second.last_use < victim->second.last_use) {
                    victim = it;
                }
            }
            if (victim == entries_.end()) {
                return;  // everything is referenced or in flight
            }
            entries_.erase(victim);
        }
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::uint64_t clock_ = 0;  ///< monotonic use counter for eviction order
    std::size_t total_refs_ = 0;
    // node-stable map: tickets hold Entry* across unlocks.
    std::unordered_map<std::string, Entry> entries_;
};

/// The exhaustive query signature: backend name, every core::Parameters
/// field (doubles in hexfloat so distinct bit patterns never collide), the
/// query's arrival rate, and every field of the solver, simulation, approx
/// and network knob blocks. Two evaluate() calls with equal signatures are
/// guaranteed bit-identical results under the determinism contract.
std::string query_signature(const std::string& backend, const ScenarioQuery& query);

}  // namespace gprsim::eval
