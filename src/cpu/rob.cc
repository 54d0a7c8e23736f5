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
    // The literal composition of dispatch()+graduate(d+1, none), kept
    // in this translation unit so both inline into one loop.  Any
    // behavioral change here breaks cycle-exactness: the differential
    // suite and the committed bench baseline both pin it.
    for (std::uint64_t i = 0; i < n; ++i) {
        const Cycles d = dispatch();
        graduate(d + 1, WaitKind::none);
    }
}

} // namespace memfwd
