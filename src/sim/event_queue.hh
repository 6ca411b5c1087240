/**
 * @file
 * Calendar queue of typed events for fixed response latencies (LLC
 * fill, DRAM burst completion) without per-cycle polling.
 */

#ifndef MITTS_SIM_EVENT_QUEUE_HH
#define MITTS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "ckpt/serialize.hh"
#include "mem/request_pool.hh"

namespace mitts
{

/**
 * An event is its descriptor: what happens, to which component, with
 * which payload. The queue stores descriptors, never closures, so
 * every pending event is checkpointable and a restored event runs the
 * same code path as a live one.
 */
struct EventDesc
{
    /** Values are the checkpoint's kind byte; 0 and 1 are invalid
     *  (an L1 hit is not an event: the core keeps its ready tick). */
    enum class Kind : std::uint8_t
    {
        LlcFill = 2,     ///< LLC -> L1 fill response
        MemComplete = 3, ///< DRAM burst done -> MC completion
    };
    static constexpr std::uint8_t kFirstKind = 2;
    static constexpr std::uint8_t kLastKind = 3;

    Kind kind = Kind::LlcFill;
    ReqPtr req; ///< the request being filled / completed

    static EventDesc
    llcFill(ReqPtr req)
    {
        EventDesc d;
        d.kind = Kind::LlcFill;
        d.req = std::move(req);
        return d;
    }

    static EventDesc
    memComplete(ReqPtr req)
    {
        EventDesc d;
        d.kind = Kind::MemComplete;
        d.req = std::move(req);
        return d;
    }
};

/**
 * Runs due events. The queue's owner (the System, or a test) installs
 * one handler; the queue keeps a non-owning pointer to it.
 */
class EventHandler
{
  public:
    virtual ~EventHandler() = default;

    /** Execute `d`, due at tick `when`. */
    virtual void fire(const EventDesc &d, Tick when) = 0;

    /**
     * Restore-time check of a descriptor read from a checkpoint:
     * throw ckpt::Error when fire() could not run it (a missing
     * request, or one for a core the system does not have).
     */
    virtual void validate(const EventDesc &d) const { (void)d; }
};

/**
 * Pending events in drain order (tick, then scheduling order), held
 * in a calendar: a 512-tick window with one FIFO list per tick, an
 * occupancy bitmap over the window for nextEventTick(), and a
 * (tick, sequence) min-heap for events beyond the window, moved into
 * their lists in order as the window advances. List nodes live in
 * one pool with a free list, so storage follows the number of
 * pending events and a steady-state drain allocates nothing.
 *
 * Same-tick order: far events for tick T are all scheduled before T
 * enters the window and migrate in sequence order the moment it
 * does; events scheduled later append behind them. So every list
 * holds its tick's events in scheduling order. Same-tick ordering
 * survives a checkpoint round trip: events are saved in drain order
 * and re-queued in that order on restore.
 *
 * Scheduling into the past — `when` strictly below the tick of the
 * most recent runDue() — is a modelling bug: the event's cycle has
 * already been executed (and possibly skipped over). Debug builds
 * assert; release builds clamp the event to the current drain horizon
 * so it fires at the next opportunity instead of being lost below an
 * already-drained tick.
 *
 * Scheduling an event for the current tick from inside a handler
 * running under runDue(now) is well-defined: the new event fires in
 * the same drain, after all previously scheduled due events.
 */
class EventQueue
{
  public:
    /** Ticks covered by the per-tick lists (a power of two). */
    static constexpr Tick kWindow = 512;

    EventQueue()
    {
        head_.fill(kNil);
        tail_.fill(kNil);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Install the handler every due event is fired through. */
    void setHandler(EventHandler *handler) { handler_ = handler; }

    /** Schedule `desc` to fire at absolute tick `when`. */
    void
    schedule(Tick when, EventDesc desc)
    {
        if (when < horizon_) {
#ifndef NDEBUG
            panic("event scheduled in the past: when=", when,
                  " < horizon=", horizon_);
#endif
            when = horizon_;
        }
        std::uint32_t n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
            nodes_[n].desc = std::move(desc);
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{std::move(desc), kNil});
        }
        if (when - base_ < kWindow) {
            append(n, when);
        } else {
            far_.push_back(Far{when, farSeq_++, n});
            std::push_heap(far_.begin(), far_.end(), Far::later);
        }
    }

    /** Run all events with tick <= now (events may schedule more). */
    void
    runDue(Tick now)
    {
        horizon_ = std::max(horizon_, now);
        for (Tick t = nextEventTick(); t <= now; t = nextEventTick()) {
            MITTS_ASSERT(handler_, "EventQueue has no handler");
            advance(t);
            const unsigned b = bucket(t);
            // Re-read the head each time: a handler may append an
            // event for this same tick, which fires in this drain.
            while (head_[b] != kNil) {
                const std::uint32_t n = head_[b];
                head_[b] = nodes_[n].next;
                if (head_[b] == kNil) {
                    tail_[b] = kNil;
                    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
                }
                --inWindow_;
                // Move out before firing: the handler may schedule,
                // which reuses this node or grows the pool.
                const EventDesc d = std::move(nodes_[n].desc);
                nodes_[n].next = free_;
                free_ = n;
                handler_->fire(d, t);
            }
        }
        advance(horizon_);
    }

    bool empty() const { return size() == 0; }
    std::size_t size() const { return inWindow_ + far_.size(); }

    /** Tick of the earliest pending event (kTickNever when empty). */
    Tick
    nextEventTick() const
    {
        if (inWindow_ == 0)
            return far_.empty() ? kTickNever : far_.front().when;
        // Window ticks map to buckets circularly from bucket(base_):
        // the first occupied bucket in that order is the earliest.
        const unsigned start = bucket(base_);
        const unsigned first_word = start / 64;
        std::uint64_t bits =
            occupied_[first_word] & (~std::uint64_t{0} << (start % 64));
        unsigned w = first_word;
        for (unsigned i = 0; bits == 0 && i < kWords; ++i) {
            w = (w + 1) % kWords;
            bits = occupied_[w];
        }
        const unsigned b =
            w * 64 + static_cast<unsigned>(std::countr_zero(bits));
        return base_ + ((b - start) & kMask);
    }

    /**
     * Checkpoint pending events in drain order. Restore requires an
     * empty queue: every descriptor is checked (kind byte, tick not
     * below the saved horizon, then the handler's validate()) and
     * re-queued through schedule() in drain order. Throws ckpt::Error
     * on the first bad one.
     */
    void
    checkpoint(ckpt::Archive &a)
    {
        std::vector<std::pair<Tick, EventDesc *>> ordered;
        if (a.saving()) {
            ordered.reserve(size());
            for (Tick k = 0; k < kWindow; ++k) {
                const Tick when = base_ + k;
                for (std::uint32_t n = head_[bucket(when)]; n != kNil;
                     n = nodes_[n].next)
                    ordered.emplace_back(when, &nodes_[n].desc);
            }
            std::vector<Far> far = far_;
            std::sort(far.begin(), far.end(),
                      [](const Far &x, const Far &y) {
                          return Far::later(y, x);
                      });
            for (const Far &f : far)
                ordered.emplace_back(f.when, &nodes_[f.node].desc);
        } else {
            MITTS_ASSERT(empty(),
                         "EventQueue restore into a non-empty queue");
        }

        a.u64(horizon_);
        std::uint64_t n = ordered.size();
        a.u64(n);
        if (!a.saving()) {
            base_ = horizon_;
            farSeq_ = 0;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            EventDesc restored;
            auto [when, d] = a.saving() ? ordered[i]
                                        : std::pair{Tick{0}, &restored};
            std::uint8_t kind = static_cast<std::uint8_t>(d->kind);
            a.u64(when);
            a.u8(kind);
            a.request(d->req);
            if (a.saving())
                continue;
            if (kind < EventDesc::kFirstKind ||
                kind > EventDesc::kLastKind)
                throw ckpt::Error("event kind " + std::to_string(kind) +
                                  " out of range in checkpoint");
            if (when < horizon_)
                throw ckpt::Error(
                    "event at tick " + std::to_string(when) +
                    " lies before the checkpoint's drain horizon " +
                    std::to_string(horizon_));
            d->kind = static_cast<EventDesc::Kind>(kind);
            if (handler_)
                handler_->validate(*d);
            schedule(when, std::move(*d));
        }
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr Tick kMask = kWindow - 1;
    static constexpr unsigned kWords = kWindow / 64;

    /** A pending event; `next` links its tick's list or the free
     *  list. */
    struct Node
    {
        EventDesc desc;
        std::uint32_t next;
    };

    /** An event beyond the window, ordered by (when, seq). */
    struct Far
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t node;

        /** Max-heap comparator inverted into a min-heap. */
        static bool
        later(const Far &a, const Far &b)
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    static unsigned bucket(Tick t) { return static_cast<unsigned>(t & kMask); }

    /** Link node `n` at the tail of tick `when`'s list. */
    void
    append(std::uint32_t n, Tick when)
    {
        const unsigned b = bucket(when);
        nodes_[n].next = kNil;
        if (tail_[b] == kNil) {
            head_[b] = n;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        } else {
            nodes_[tail_[b]].next = n;
        }
        tail_[b] = n;
        ++inWindow_;
    }

    /**
     * Slide the window to start at `t` (no pending event lies below
     * it) and move far events that now fall inside it into their
     * lists, in (when, seq) order.
     */
    void
    advance(Tick t)
    {
        if (t <= base_)
            return;
        base_ = t;
        while (!far_.empty() && far_.front().when - base_ < kWindow) {
            std::pop_heap(far_.begin(), far_.end(), Far::later);
            append(far_.back().node, far_.back().when);
            far_.pop_back();
        }
    }

    std::vector<Node> nodes_;
    // calendar storage; rebuilt by schedule() on restore
    std::uint32_t free_ = kNil;
    // calendar storage; rebuilt by schedule() on restore
    std::array<std::uint32_t, kWindow> head_;
    // detlint-transient(calendar storage; rebuilt by schedule() on restore)
    std::array<std::uint32_t, kWindow> tail_;
    // detlint-transient(calendar storage; rebuilt by schedule() on restore)
    std::array<std::uint64_t, kWords> occupied_{};
    // calendar storage; rebuilt by schedule() on restore
    std::size_t inWindow_ = 0;
    std::vector<Far> far_;
    // far events are renumbered 0..n-1 on restore
    std::uint64_t farSeq_ = 0;
    /** First tick of the window; equals horizon_ between drains. */
    Tick base_ = 0;
    /** Tick of the most recent runDue(); past-schedule clamp floor. */
    Tick horizon_ = 0;
    EventHandler *handler_ = nullptr;
};

} // namespace mitts

#endif // MITTS_SIM_EVENT_QUEUE_HH
