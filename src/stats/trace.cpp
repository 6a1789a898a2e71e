#include "stats/trace.hpp"

#include <ostream>

#include "stats/json_writer.hpp"

namespace metro::trace {

Tracer::Tracer(std::size_t capacity) {
  buf_.resize(capacity == 0 ? 1 : capacity);
  // Pre-intern the well-known ids in the exact order of the trace::id
  // constants — the constant is the index. Categories group lanes in the
  // chrome://tracing search box; arg labels name the payloads.
  names_ = {
      {"kernel", "fire", "processed", ""},            // kKernelFire
      {"kernel", "wheel_cascade", "moved", "level"},  // kWheelCascade
      {"kernel", "wheel_epoch", "overflow", ""},      // kWheelEpoch
      {"nic", "rx_burst", "accepted", "offered"},     // kRxBurst
      {"nic", "tx_flush", "flushed", ""},             // kTxFlush
      {"met", "sleep", "ts_ns", "queue"},             // kMetSleep
      {"met", "drain", "drained", "queue"},           // kMetDrain
      {"fault", "drop", "flow_id", ""},                   // kFaultDrop
      {"fault", "reorder_hold", "flow_id", ""},           // kFaultReorder
      {"fault", "link_down", "flow_id", ""},              // kFaultLinkDown
      {"fault", "rx_stall", "stall_ns", ""},          // kFaultStall
      {"sweep", "shard", "shard_index", ""},          // kShard
  };
}

std::uint32_t Tracer::intern(std::string category, std::string name, std::string arg_label,
                             std::string arg2_label) {
  names_.push_back(NameInfo{std::move(category), std::move(name), std::move(arg_label),
                            std::move(arg2_label)});
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::count(std::uint32_t name) const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (buf_[i].name == name) ++n;
  }
  return n;
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceProcess>& processes) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const std::uint64_t pid = p + 1;
    // Lane label: chrome://tracing shows this instead of the bare pid.
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.key("args").begin_object();
    w.kv("name", processes[p].name);
    w.end_object();
    w.end_object();
    const Tracer* t = processes[p].tracer;
    if (t == nullptr) continue;
    for (std::size_t i = 0; i < t->size(); ++i) {
      const TraceEvent& e = t->event(i);
      const NameInfo& n = t->name_info(e.name);
      w.begin_object();
      w.kv("name", n.name);
      w.kv("cat", n.category);
      w.kv("ph", e.phase == Phase::kSpan ? "X" : "i");
      // Chrome timestamps are microseconds; ns/1000.0 keeps sub-µs
      // resolution as a fractional part.
      w.kv("ts", static_cast<double>(e.ts) / 1000.0);
      if (e.phase == Phase::kSpan) {
        w.kv("dur", static_cast<double>(e.dur) / 1000.0);
      } else {
        w.kv("s", "t");  // instant scope: thread
      }
      w.kv("pid", pid);
      w.kv("tid", static_cast<std::uint64_t>(e.tid));
      w.key("args").begin_object();
      w.kv(n.arg_label, e.arg);
      if (!n.arg2_label.empty()) w.kv(n.arg2_label, static_cast<std::uint64_t>(e.arg2));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  w.finish();
}

}  // namespace metro::trace
