#include "cpu/ooo_cpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

OooCpu::OooCpu(const OooParams &params)
    : params_(params), rob_(params.width, params.window), lsq_(params)
{
}

void
OooCpu::alu(std::uint64_t n)
{
    pending_alu_ += n;
}

Cycles
OooCpu::arbitratePort(Cycles want)
{
    // mem_ports references may begin per cycle.  Port bookkeeping is
    // monotone: a reference never issues earlier than a port slot we
    // already handed out, which is a mild serialization but matches the
    // in-order address-generation of the modelled front end.
    if (want > port_cycle_) {
        port_cycle_ = want;
        ports_used_ = 1;
        return want;
    }
    if (ports_used_ < params_.mem_ports) {
        ++ports_used_;
        return port_cycle_;
    }
    ++port_cycle_;
    ports_used_ = 1;
    return port_cycle_;
}

MemIssue
OooCpu::issueMem(Cycles addr_ready, bool is_load)
{
    retireAlu();
    const Cycles dispatch = rob_.dispatch();
    Cycles issue = std::max(dispatch, addr_ready);
    if (is_load)
        issue = lsq_.loadIssueCycle(rob_.instructions(), issue);
    issue = arbitratePort(issue);
    return {rob_.instructions(), dispatch, issue};
}

Cycles
OooCpu::finishLoad(const MemIssue &mi, Cycles completion,
                   Cycles forward_cycles, bool missed_l1,
                   Addr initial_word, Addr final_word, unsigned words)
{
    retireAlu();
    const Cycles penalty = lsq_.checkLoad(mi.seq, mi.issue, initial_word,
                                          final_word, words);
    const Cycles done = completion + penalty;

    ++ref_stats_.loads;
    const Cycles total = done - mi.issue;
    const Cycles fwd = std::min(forward_cycles, total);
    ref_stats_.load_forward_cycles += fwd;
    ref_stats_.load_ordinary_cycles += total - fwd;

    rob_.graduate(done, (missed_l1 || forward_cycles > 0)
                            ? WaitKind::load_miss
                            : WaitKind::none);
    return done;
}

Cycles
OooCpu::finishStore(const MemIssue &mi, Cycles completion,
                    Cycles forward_cycles, bool missed_l1,
                    Addr initial_word, Addr final_word, unsigned words)
{
    retireAlu();
    lsq_.recordStore(mi.seq, initial_word, final_word, words, completion);

    ++ref_stats_.stores;
    const Cycles total = completion - mi.issue;
    const Cycles fwd = std::min(forward_cycles, total);
    ref_stats_.store_forward_cycles += fwd;
    ref_stats_.store_ordinary_cycles += total - fwd;

    // The store drains through the store buffer: it can graduate once
    // a buffer slot is free, and only stalls graduation when the buffer
    // is full of outstanding misses.
    Cycles retire = mi.issue + 1;
    while (!store_buffer_.empty() && store_buffer_.front() <= retire)
        store_buffer_.pop_front();
    bool buffer_stall = false;
    if (store_buffer_.size() >= params_.store_buffer) {
        retire = store_buffer_.front();
        store_buffer_.pop_front();
        buffer_stall = true;
    }
    store_buffer_.push_back(completion > retire ? completion : retire);

    const bool charged = buffer_stall || forward_cycles > 0;
    (void)missed_l1;
    rob_.graduate(retire, charged ? WaitKind::store_miss
                                  : WaitKind::none);
    return completion;
}

void
OooCpu::finishNonBlocking(const MemIssue &mi)
{
    retireAlu();
    rob_.graduate(mi.dispatch + 1, WaitKind::none);
}

void
OooCpu::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("cycles", cycles());
    into.counter("instructions", instructions());

    const StallStats &st = stalls();
    auto &slots = into.child("slots");
    slots.counter("busy", st.busy);
    slots.counter("load_stall", st.load_stall);
    slots.counter("store_stall", st.store_stall);
    slots.counter("inst_stall", st.inst_stall);

    auto &lsq = into.child("lsq");
    lsq.counter("speculations", lsq_.speculations());
    lsq.counter("violations", lsq_.violations());

    auto &lat = into.child("latency");
    lat.counter("loads", ref_stats_.loads);
    lat.counter("stores", ref_stats_.stores);
    lat.counter("load_ordinary_cycles", ref_stats_.load_ordinary_cycles);
    lat.counter("load_forward_cycles", ref_stats_.load_forward_cycles);
    lat.counter("store_ordinary_cycles", ref_stats_.store_ordinary_cycles);
    lat.counter("store_forward_cycles", ref_stats_.store_forward_cycles);
    lat.gauge("avg_load_cycles", ref_stats_.avgLoadCycles());
    lat.gauge("avg_store_cycles", ref_stats_.avgStoreCycles());
}

} // namespace memfwd
