#include "proc/output_buffer_unit.hpp"

#include "proc/channel_hooks.hpp"

namespace emx::proc {

void OutputBufferUnit::send(const net::Packet& packet) {
  ++sent_;
  std::uint32_t idx;
  if (free_head_ != 0xFFFFFFFFu) {
    idx = free_head_;
    free_head_ = pool_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx].packet = packet;
  pool_[idx].packet.issue_cycle = sim_.now();
  pool_[idx].in_use = true;
  // Sequence stamping happens before the release event is scheduled so
  // the channel's retransmit timer always precedes the packet's own
  // injection in the event order (matching the pre-channel behaviour).
  // A false return means the write fence captured the packet: the channel
  // re-submits it once the blocking writes are ACKed, so this slot is
  // surrendered and the packet never enters the fabric now.
  if (channel_ != nullptr && !channel_->on_obu_send(pool_[idx].packet)) {
    --sent_;
    pool_[idx].in_use = false;
    pool_[idx].next_free = free_head_;
    free_head_ = idx;
    return;
  }
  sim_.schedule(obu_cycles_, &OutputBufferUnit::release_event, this, idx, 0);
}

void OutputBufferUnit::release_event(void* ctx, std::uint64_t idx64, std::uint64_t) {
  auto* self = static_cast<OutputBufferUnit*>(ctx);
  auto idx = static_cast<std::uint32_t>(idx64);
  Outgoing& rec = self->pool_[idx];
  EMX_DCHECK(rec.in_use, "OBU releasing freed slot");
  // inject() copies the packet and never re-enters this OBU, so the slot
  // can be handed over by reference and freed afterwards.
  self->network_.inject(rec.packet);
  rec.in_use = false;
  rec.next_free = self->free_head_;
  self->free_head_ = idx;
}

}  // namespace emx::proc
