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

bool
Rob::aluStaircase(std::uint64_t n)
{
    // With w = width, F/fs and G/gs the fetch and graduation cursors
    // and their slot counts, and e_j the retire time burst instruction j
    // reads through the window, dispatch() and graduate() are
    //   P' = max(P, e*w) + 1, d = (P' - 1) / w      with P = F*w + fs
    //   Q' = max(Q, (d+1)*w) + 1, r = (Q' - 1) / w  with Q = G*w + gs,
    // the slots stalled being the max's excess over Q.  So
    //   d_k = max(F + (fs+k)/w, max_{j<=k} (e_j + (k-j)/w)),
    // and graduation stays on its staircase r_k = G + (gs+k)/w, with no
    // stall slot, exactly while d_k + 1 <= G + (gs+k)/w.  That holds
    // for every k when
    //   (a) F + 1 < G, or F + 1 == G and fs <= gs, and
    //   (b) e_j + 1 <= G + (gs+j)/w, i.e. e_j*w - j <= Q - w, for every
    //       read j.
    // (b) follows from (a) once nothing dispatched is still waiting to
    // graduate: the reads j < window are then the window's last
    // retirements in order (or the ring's initial 0s), all at most G,
    // and only the last gs of them, j >= window - gs, equal G; (a)
    // gives G >= 1.  So e_j <= G - 1 gives e_j*w - j <= Q - gs - w, and
    // e_j == G gives G*w - j <= Q - window <= Q - w.  A read j >=
    // window is the staircase's own r_{j-window}, which satisfies (b)
    // since window >= w.  On the staircase only the final fetch
    // position needs the reads,
    //   P_n = max(P + n, max_{j<n} (e_j*w + n - j)),
    // a max over at most w + 1 of them (below).
    if (seq_ != graduated_ || fetch_cycle_ + 1 > grad_cycle_ ||
        (fetch_cycle_ + 1 == grad_cycle_ && fetch_slots_ > grad_slots_))
        return false;
    const Cycles fetch_pos = fetch_cycle_ * width_ + fetch_slots_;

    // reach = max_j (e_j*w + window - j) over the reads, offset by
    // window to stay unsigned.  The ring holds the last window retire
    // cycles in order, at most w to a cycle, so a read e_j > 0 is
    // dominated by read j + w: (e_j + 1)*w - (j + w) = e_j*w - j.  The
    // maximum is therefore at read 0 (e_j == 0 reads are dominated by
    // it) or among the last w reads j < min(n, window).  A read
    // j >= window, the staircase's own r_{j-window}, adds at most Q: no
    // more than the ring's read of the retirement that opened cycle G,
    // gs <= window places back (gs >= 1 once anything graduated).
    Cycles *const ring = retire_ring_.data();
    const unsigned reads =
        static_cast<unsigned>(std::min<std::uint64_t>(n, window_));
    auto read = [&](unsigned j) {
        unsigned s = dispatch_slot_ + j;
        if (s >= window_)
            s -= window_;
        return ring[s] * width_ + (window_ - j);
    };
    Cycles reach = read(0);
    for (unsigned j = reads > width_ ? reads - width_ : 1; j < reads; ++j)
        reach = std::max(reach, read(j));
    const Cycles fetch_end = std::max(fetch_pos + window_, reach) + n -
                             window_ - 1;
    fetch_cycle_ = fetch_end / width_;
    fetch_slots_ = static_cast<unsigned>(fetch_end % width_) + 1;

    // Write the last min(n, window) retirements into the ring, stepping
    // graduate()'s cursor (G, gs >= 1) from the first of them.
    Cycles r = grad_cycle_;
    unsigned used = grad_slots_;
    unsigned slot = retire_slot_;
    if (n > window_) {
        const std::uint64_t skipped = used + (n - window_) - 1;
        r += skipped / width_;
        used = static_cast<unsigned>(skipped % width_) + 1;
        slot += static_cast<unsigned>(n % window_);
    }
    if (slot >= window_)
        slot -= window_;
    for (unsigned k = 0; k < reads; ++k) {
        if (used == width_) {
            ++r;
            used = 0;
        }
        ++used;
        ring[slot] = r;
        if (++slot == window_)
            slot = 0;
    }
    grad_cycle_ = r;
    grad_slots_ = used;
    dispatch_slot_ = retire_slot_ = slot;
    seq_ += n;
    graduated_ += n;
    stalls_.busy += n;
    return true;
}

void
Rob::aluBurst(std::uint64_t n)
{
    // Step until graduation is on its staircase, then write the rest in
    // closed form.  After one step the instruction just graduated
    // retired at least a cycle after its dispatch, so F + 1 <= G; the
    // steps that follow keep fs - gs fixed until fetch or graduation
    // moves on a cycle, which meets (a).  So at most width + 1 steps
    // precede the staircase.  A burst issued while an instruction is
    // dispatched but not graduated, which the Machine never does, steps
    // to the end.
    for (; n > 0; --n) {
        if (aluStaircase(n))
            return;
        graduate(dispatch() + 1, WaitKind::none);
    }
}

} // namespace memfwd
