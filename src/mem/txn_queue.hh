/**
 * @file
 * Structure-of-arrays transaction queue for one memory channel.
 *
 * The controller's hot loops — the per-cycle scheduler scan and the
 * skip-ahead nextWakeTick() lower bound — only need a transaction's
 * DRAM coordinates, data direction and age. Keeping those in dense
 * parallel columns lets the scans run over flat arrays instead of
 * chasing a pooled request per entry, and computes the (bank, row)
 * address decomposition once at enqueue instead of inside every
 * canIssue()/earliestIssueTick() probe.
 *
 * Columns are snapshots taken at push() time. That is sound because
 * blockAddr, op and core are immutable once a request is created, and
 * the controller stamps mcEnqueueAt immediately before pushing.
 * Anything else a scheduler reads stays on the request itself,
 * reached through req().
 */

#ifndef MITTS_MEM_TXN_QUEUE_HH
#define MITTS_MEM_TXN_QUEUE_HH

#include <cstdint>
#include <vector>

#include "dram/dram_config.hh"
#include "mem/request_pool.hh"

namespace mitts
{

class TxnQueue
{
  public:
    std::size_t size() const { return reqs_.size(); }
    bool empty() const { return reqs_.empty(); }

    /** Handle of entry `i`. */
    const ReqPtr &req(std::size_t i) const { return reqs_[i]; }

    Addr blockAddr(std::size_t i) const { return addr_[i]; }
    const DramCoord &coord(std::size_t i) const { return coord_[i]; }
    /** DRAM data direction: true iff the burst drives data to DRAM. */
    bool isWrite(std::size_t i) const { return write_[i] != 0; }
    bool isDemand(std::size_t i) const { return demand_[i] != 0; }
    Tick enqueueAt(std::size_t i) const { return enq_[i]; }
    CoreId core(std::size_t i) const { return core_[i]; }

    /** Writebacks (non-demand entries) currently queued, O(1); feeds
     *  the controller's write-drain hysteresis. */
    unsigned writebacks() const { return writebacks_; }

    /** Append `req`, decomposing its block address per `cfg`. */
    void
    push(ReqPtr req, const DramConfig &cfg)
    {
        const MemRequest &r = *req;
        addr_.push_back(r.blockAddr);
        coord_.push_back(mapAddress(r.blockAddr, cfg));
        write_.push_back(r.isDramWrite() ? 1 : 0);
        demand_.push_back(r.isDemand() ? 1 : 0);
        enq_.push_back(r.mcEnqueueAt);
        core_.push_back(r.core);
        writebacks_ += r.isDemand() ? 0u : 1u;
        reqs_.push_back(std::move(req));
    }

    /** Remove entry `i` preserving order; returns its handle. */
    ReqPtr
    take(std::size_t i)
    {
        ReqPtr out = std::move(reqs_[i]);
        writebacks_ -= demand_[i] ? 0u : 1u;
        const auto d = static_cast<std::ptrdiff_t>(i);
        reqs_.erase(reqs_.begin() + d);
        addr_.erase(addr_.begin() + d);
        coord_.erase(coord_.begin() + d);
        write_.erase(write_.begin() + d);
        demand_.erase(demand_.begin() + d);
        enq_.erase(enq_.begin() + d);
        core_.erase(core_.begin() + d);
        return out;
    }

    void
    clear()
    {
        reqs_.clear();
        addr_.clear();
        coord_.clear();
        write_.clear();
        demand_.clear();
        enq_.clear();
        core_.clear();
        writebacks_ = 0;
    }

  private:
    std::vector<ReqPtr> reqs_;
    std::vector<Addr> addr_;
    std::vector<DramCoord> coord_;
    std::vector<std::uint8_t> write_;
    std::vector<std::uint8_t> demand_;
    std::vector<Tick> enq_;
    std::vector<CoreId> core_;
    unsigned writebacks_ = 0;
};

} // namespace mitts

#endif // MITTS_MEM_TXN_QUEUE_HH
