#include "cpu/rob.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

Rob::Rob(unsigned width, unsigned window)
    : width_(width), window_(window), retire_ring_(window, 0)
{
    memfwd_assert(width > 0 && window >= width,
                  "Rob(width=%u, window=%u) is not a sane geometry",
                  width, window);
}

Cycles
Rob::dispatch()
{
    // Window constraint: instruction seq_ cannot enter until
    // instruction (seq_ - window_) has retired and freed its slot.  The
    // ring starts zeroed, so the first window_ dispatches read 0.
    const Cycles earliest = retire_ring_[dispatch_slot_];
    if (++dispatch_slot_ == window_)
        dispatch_slot_ = 0;

    if (earliest > fetch_cycle_) {
        fetch_cycle_ = earliest;
        fetch_slots_ = 0;
    }
    if (fetch_slots_ == width_) {
        ++fetch_cycle_;
        fetch_slots_ = 0;
    }
    ++fetch_slots_;
    ++seq_;
    return fetch_cycle_;
}

Cycles
Rob::graduate(Cycles completion, WaitKind kind)
{
    memfwd_assert(graduated_ < seq_,
                  "graduate() without a matching dispatch()");

    Cycles target = std::max(completion, grad_cycle_);

    if (target == grad_cycle_ && grad_slots_ == width_) {
        // Current cycle's slots are exhausted; spill to the next.
        ++grad_cycle_;
        grad_slots_ = 0;
        target = grad_cycle_;
    }

    if (target > grad_cycle_) {
        // Attribute every empty slot between the graduation cursor and
        // the cycle this instruction becomes ready.
        const std::uint64_t stall_slots =
            (width_ - grad_slots_) +
            static_cast<std::uint64_t>(target - grad_cycle_ - 1) * width_;
        switch (kind) {
          case WaitKind::load_miss:
            stalls_.load_stall += stall_slots;
            break;
          case WaitKind::store_miss:
            stalls_.store_stall += stall_slots;
            break;
          case WaitKind::none:
            stalls_.inst_stall += stall_slots;
            break;
        }
        grad_cycle_ = target;
        grad_slots_ = 0;
    }

    ++stalls_.busy;
    ++grad_slots_;
    ++graduated_;
    retire_ring_[retire_slot_] = grad_cycle_;
    if (++retire_slot_ == window_)
        retire_slot_ = 0;
    return grad_cycle_;
}

void
Rob::aluBurst(std::uint64_t n)
{
    // n dispatch()/graduate(d+1, none) pairs, in closed form.  For ALU
    // work the cursors follow max-plus recurrences,
    //   d_i = max(d_{i-1}, d_{i-width} + 1, r_{i-window})
    //   r_i = max(r_{i-1}, r_{i-width} + 1, d_i + 1),
    // which commute with adding a constant to every cycle.  So once the
    // state (both cursors, their slot counts, the ring) equals the state
    // `width` instructions earlier shifted by one cycle, it stays so:
    // one full fetch group and one full graduation group per cycle.
    // The groups need not be adjacent.  Fetch and graduation each pace
    // themselves at `width` per cycle and pull on each other only
    // through the window and the one-cycle latency, so any gap from 1
    // to window/width cycles persists: 16 cycles at 4/64 after a
    // 100-cycle load, for as long as the stream runs.
    //
    // The loop steps literally until it sees that state.  `run` counts
    // trailing retirements one cycle after the one `width` earlier; at
    // run >= window that covers the ring, the graduation cursor and its
    // slot count, and the fetch cursor is compared with a snapshot once
    // per group.  The burst's retirements settle within a group or two:
    // they come `width` per cycle, paced by the graduation cursor while
    // fetch is behind it and by fetch otherwise, since the retire times
    // read through the window are all at or before the graduation
    // cursor.  Fetch can jump once more, a window into the burst, when
    // the first of those retirements come back through the window (the
    // 100-cycle-load case above).  So detection takes one window plus a
    // few groups; measured over random prior states (misses, store
    // stalls, earlier bursts) at every geometry with width <= 9 and
    // window <= 3*width + 12, and at 4/64 and 8/128: at most window +
    // 3*width literal steps.  The rest is skipped by arithmetic: every
    // cursor and retire time moves by the cycles skipped, and the ring
    // rotates by the instructions skipped.
    //
    // The step is dispatch() and graduate() specialised to ALU work, on
    // locals that the ring stores cannot alias.
    Cycles *const ring = retire_ring_.data();
    Cycles fetch = fetch_cycle_, grad = grad_cycle_;
    unsigned fetch_slots = fetch_slots_, grad_slots = grad_slots_;
    unsigned dispatch_slot = dispatch_slot_, retire_slot = retire_slot_;
    unsigned lag_slot = retire_slot >= width_
                            ? retire_slot - width_
                            : retire_slot + window_ - width_;
    std::uint64_t inst_stall = 0;

    Cycles fetch0 = fetch;
    unsigned fetch_slots0 = fetch_slots;
    unsigned since = 0;    // steps since the snapshot above
    std::uint64_t run = 0; // trailing r_j == r_{j-width} + 1

    for (std::uint64_t left = n; left > 0;) {
        if (since == width_) {
            if (left >= width_ && run >= window_ && fetch == fetch0 + 1 &&
                fetch_slots == fetch_slots0) {
                const std::uint64_t cycles = left / width_;
                const unsigned shift =
                    static_cast<unsigned>(cycles * width_ % window_);
                std::rotate(ring, ring + (window_ - shift) % window_,
                            ring + window_);
                for (unsigned i = 0; i < window_; ++i)
                    ring[i] += cycles;
                dispatch_slot = (dispatch_slot + shift) % window_;
                retire_slot = (retire_slot + shift) % window_;
                lag_slot = (lag_slot + shift) % window_;
                fetch += cycles;
                grad += cycles;
                left %= width_;
            }
            fetch0 = fetch;
            fetch_slots0 = fetch_slots;
            since = 0;
            continue;
        }

        // dispatch()
        const Cycles earliest = ring[dispatch_slot];
        if (++dispatch_slot == window_)
            dispatch_slot = 0;
        if (earliest > fetch) {
            fetch = earliest;
            fetch_slots = 0;
        }
        if (fetch_slots == width_) {
            ++fetch;
            fetch_slots = 0;
        }
        ++fetch_slots;

        // graduate(fetch + 1, WaitKind::none).  r_{j-width} is read
        // first: with width == window it shares the slot being written.
        const Cycles earlier = ring[lag_slot];
        if (++lag_slot == window_)
            lag_slot = 0;
        Cycles target = std::max(fetch + 1, grad);
        if (target == grad && grad_slots == width_) {
            ++grad;
            grad_slots = 0;
            target = grad;
        }
        if (target > grad) {
            inst_stall += (width_ - grad_slots) +
                          static_cast<std::uint64_t>(target - grad - 1) *
                              width_;
            grad = target;
            grad_slots = 0;
        }
        ++grad_slots;
        ring[retire_slot] = grad;
        if (++retire_slot == window_)
            retire_slot = 0;

        run = grad == earlier + 1 ? run + 1 : 0;
        ++since;
        --left;
    }

    fetch_cycle_ = fetch;
    grad_cycle_ = grad;
    fetch_slots_ = fetch_slots;
    grad_slots_ = grad_slots;
    dispatch_slot_ = dispatch_slot;
    retire_slot_ = retire_slot;
    seq_ += n;
    graduated_ += n;
    stalls_.busy += n;
    stalls_.inst_stall += inst_stall;
}

} // namespace memfwd
