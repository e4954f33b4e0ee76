#include "obs/flight.h"

#include <algorithm>

namespace mct::obs {

void FlightRing::push(EventType type, uint16_t ctx, uint64_t a, uint64_t b,
                      uint64_t span)
{
    TraceEvent& e = slab_[next_ % capacity_];
    e.seq = owner_->next_seq_++;
    e.ts = owner_->clock_ ? owner_->clock_() : 0;
    e.type = type;
    e.ctx = ctx;
    e.a = a;
    e.b = b;
    e.span = span;
    next_++;
}

std::vector<TraceEvent> FlightRing::events() const
{
    std::vector<TraceEvent> out;
    uint64_t n = next_ < capacity_ ? next_ : capacity_;
    out.reserve(n);
    for (uint64_t i = next_ - n; i < next_; ++i) out.push_back(slab_[i % capacity_]);
    return out;
}

FlightRecorder::FlightRecorder(Config cfg) : cfg_(cfg)
{
    if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
    if (cfg_.max_rings == 0) cfg_.max_rings = 1;
    slab_.resize(cfg_.ring_capacity * cfg_.max_rings);
    rings_.resize(cfg_.max_rings);
    fresh_.reserve(cfg_.max_rings);
    // Pop order front-to-back: slot 0 first.
    for (size_t i = cfg_.max_rings; i-- > 0;) fresh_.push_back(i);
}

FlightRing* FlightRecorder::open(uint64_t sid, std::string_view label)
{
    auto key = std::make_pair(sid, std::string(label));
    auto it = live_.find(key);
    if (it != live_.end()) return &rings_[it->second];

    size_t slot = rings_.size();
    if (!fresh_.empty()) {
        slot = fresh_.back();
        fresh_.pop_back();
    } else {
        // Recycle the closed slot that was retired earliest; never a live one.
        uint64_t oldest = 0;
        bool found = false;
        for (size_t i = 0; i < rings_.size(); ++i) {
            if (rings_[i].open_) continue;
            if (!found || rings_[i].closed_at_ < oldest) {
                oldest = rings_[i].closed_at_;
                slot = i;
                found = true;
            }
        }
        if (!found) {
            ++rings_denied_;
            return nullptr;
        }
        // The slot's entire history — retained events included — stops being
        // snapshotable, so all of it counts as dropped from here on.
        dropped_recycled_ += rings_[slot].total();
        ++rings_recycled_;
    }

    FlightRing& ring = rings_[slot];
    ring.owner_ = this;
    ring.slab_ = slab_.data() + slot * cfg_.ring_capacity;
    ring.capacity_ = cfg_.ring_capacity;
    ring.next_ = 0;
    ring.sid_ = sid;
    ring.label_ = key.second;
    ring.open_ = true;
    ring.closed_at_ = 0;
    live_[std::move(key)] = slot;
    ++rings_opened_;
    return &ring;
}

void FlightRecorder::close(FlightRing* ring)
{
    if (!ring || !ring->open_) return;
    ring->open_ = false;
    ring->closed_at_ = ++close_counter_;
    live_.erase(std::make_pair(ring->sid_, ring->label_));
}

uint64_t FlightRecorder::events_dropped() const
{
    uint64_t total = dropped_recycled_;
    for (const auto& r : rings_)
        if (r.owner_) total += r.dropped();
    return total;
}

std::vector<FlightRecorder::Snapshot> FlightRecorder::snapshot(
    const std::vector<uint64_t>& sids) const
{
    std::vector<Snapshot> out;
    for (const auto& r : rings_) {
        if (!r.owner_) continue;  // slot never used
        if (!sids.empty() &&
            std::find(sids.begin(), sids.end(), r.sid()) == sids.end())
            continue;
        Snapshot s;
        s.sid = r.sid();
        s.label = r.label();
        s.total = r.total();
        s.dropped = r.dropped();
        s.events = r.events();
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(), [](const Snapshot& a, const Snapshot& b) {
        if (a.sid != b.sid) return a.sid < b.sid;
        return a.label < b.label;
    });
    return out;
}

}  // namespace mct::obs
