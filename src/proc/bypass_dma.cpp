#include "proc/bypass_dma.hpp"

#include "common/assert.hpp"
#include "runtime/global_addr.hpp"

namespace emx::proc {

// Memory effects commit when the request is accepted; the DMA engine's
// occupancy and the reply departure are modelled on its own timeline.
// This relaxation is safe because application phases are separated by
// barriers (no PE writes a region while a peer reads it), and it
// guarantees that by the time a reply resumes a thread, every earlier
// packet's memory effect is visible.

Cycle BypassDma::reserve_engine(Cycle occupancy) {
  const Cycle start = engine_free_ > sim_.now() ? engine_free_ : sim_.now();
  engine_free_ = start + occupancy;
  stats_.busy_cycles += occupancy;
  return start;
}

void BypassDma::schedule_reply(const net::Packet& reply, Cycle when) {
  std::uint32_t idx;
  if (free_head_ != 0xFFFFFFFFu) {
    idx = free_head_;
    free_head_ = pool_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx].packet = reply;
  pool_[idx].in_use = true;
  ++stats_.reply_packets;
  sim_.schedule_at(when, &BypassDma::service_event, this, idx, 0);
}

void BypassDma::service_event(void* ctx, std::uint64_t idx64, std::uint64_t) {
  auto* self = static_cast<BypassDma*>(ctx);
  auto idx = static_cast<std::uint32_t>(idx64);
  Job& job = self->pool_[idx];
  EMX_DCHECK(job.in_use, "DMA releasing freed job");
  // send() copies the packet and never re-enters this DMA, so the slot
  // can be handed over by reference and freed afterwards.
  self->obu_.send(job.packet);
  job.in_use = false;
  job.next_free = self->free_head_;
  self->free_head_ = idx;
}

void BypassDma::resend_resume(const net::Packet& req) {
  sim_.note_progress();
  EMX_DCHECK(req.kind == net::PacketKind::kBlockReadReq,
             "resume re-send for a non-block-read packet");
  const Cycle start = reserve_engine(interval_cycles_);
  const rt::GlobalAddr base = rt::unpack(req.addr);
  const rt::GlobalAddr dest = rt::unpack(req.data);
  const std::uint32_t last = req.block_len - 1;
  net::Packet reply;
  reply.kind = net::PacketKind::kBlockReadReply;
  reply.src = req.dst;
  reply.dst = req.src;
  reply.cont_thread = req.cont_thread;
  reply.cont_tag = req.cont_tag;
  reply.cont_slot = req.cont_slot;
  reply.priority = req.priority;
  reply.data = memory_.read(base.addr + last);
  reply.addr = rt::pack(dest + last);
  reply.req_seq = req.req_seq;
  schedule_reply(reply, start + service_cycles_);
}

void BypassDma::service(const net::Packet& packet) {
  // A packet being serviced is forward progress for the watchdog: memory
  // changes or a reply departs.
  sim_.note_progress();
  using net::PacketKind;
  switch (packet.kind) {
    case PacketKind::kRemoteWrite: {
      ++stats_.writes_serviced;
      reserve_engine(interval_cycles_);
      const rt::GlobalAddr target = rt::unpack(packet.addr);
      EMX_DCHECK(target.proc == packet.dst, "write routed to wrong PE");
      memory_.write(target.addr, packet.data);
      return;
    }
    case PacketKind::kRemoteReadReq: {
      ++stats_.reads_serviced;
      const Cycle start = reserve_engine(interval_cycles_);
      const rt::GlobalAddr target = rt::unpack(packet.addr);
      EMX_DCHECK(target.proc == packet.dst, "read routed to wrong PE");
      net::Packet reply;
      reply.kind = PacketKind::kRemoteReadReply;
      reply.src = packet.dst;
      reply.dst = packet.src;
      reply.addr = packet.data;  // continuation travels back
      reply.data = memory_.read(target.addr);
      reply.cont_thread = packet.cont_thread;
      reply.cont_tag = packet.cont_tag;
      reply.cont_slot = packet.cont_slot;
      reply.priority = packet.priority;
      reply.req_seq = packet.req_seq;  // reply echoes the request sequence
      schedule_reply(reply, start + service_cycles_);
      return;
    }
    case PacketKind::kBlockReadReq: {
      ++stats_.block_reads_serviced;
      // One request's worth of setup, then the words stream at wire rate.
      const Cycle start = reserve_engine(
          interval_cycles_ + (packet.block_len - 1) * block_word_cycles_);
      const rt::GlobalAddr base = rt::unpack(packet.addr);
      EMX_DCHECK(base.proc == packet.dst, "block read routed to wrong PE");
      // The data word carries the destination buffer base on the requester.
      const rt::GlobalAddr dest = rt::unpack(packet.data);
      for (std::uint32_t i = 0; i < packet.block_len; ++i) {
        net::Packet reply;
        reply.src = packet.dst;
        reply.dst = packet.src;
        reply.cont_thread = packet.cont_thread;
        reply.cont_tag = packet.cont_tag;
        reply.cont_slot = packet.cont_slot;
        reply.priority = packet.priority;
        reply.data = memory_.read(base.addr + i);
        reply.addr = rt::pack(dest + i);
        // All words but the last are plain stores into the requester's
        // buffer; the final word additionally resumes the waiting thread.
        reply.kind = (i + 1 < packet.block_len) ? PacketKind::kRemoteWrite
                                                : PacketKind::kBlockReadReply;
        // Only the resuming word is a tracked reply; it echoes the seq so
        // the requester can retire (or suppress a duplicate of) the read.
        if (reply.kind == PacketKind::kBlockReadReply)
          reply.req_seq = packet.req_seq;
        schedule_reply(reply, start + service_cycles_ + i * block_word_cycles_);
      }
      return;
    }
    case PacketKind::kRemoteReadReply:
    case PacketKind::kBlockReadReply:
    case PacketKind::kInvoke:
    case PacketKind::kLocalWake:
    case PacketKind::kAck:
      EMX_UNREACHABLE("packet kind not serviced by DMA");
  }
}

}  // namespace emx::proc
