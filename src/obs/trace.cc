#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "util/stopwatch.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mview::obs {
namespace {

int64_t CurrentOsTid() {
#if defined(__linux__)
  return static_cast<int64_t>(::syscall(SYS_gettid));
#else
  // Portable fallback: a stable per-thread hash (not an OS tid, but still
  // distinguishes threads in the export).
  return static_cast<int64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Set once the calling thread's exit hook has run.  A span recorded after it
// (on the main thread, by a static object's destructor at exit) is dropped
// rather than given a ring that nothing would retire.
thread_local bool this_thread_exited = false;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives exiting threads
  return *tracer;
}

struct Tracer::ThreadState {
  std::string name;
  ~ThreadState() {
    this_thread_exited = true;
    if (this_thread_ring_ == nullptr) return;
    Tracer::Global().Retire(this_thread_ring_);
    this_thread_ring_ = nullptr;
  }
};

thread_local Tracer::ThreadBuffer* Tracer::this_thread_ring_ = nullptr;

Tracer::ThreadState& Tracer::ThisThread() {
  // Constructed by the thread's first rename or span, so its destructor (the
  // ring's retirement) runs after those of thread-locals made later.
  thread_local ThreadState state;
  return state;
}

Tracer::ThreadBuffer* Tracer::CreateRingForThisThread() {
  if (this_thread_exited) return nullptr;
  const std::string& name = ThisThread().name;
  auto ring = std::make_unique<ThreadBuffer>(CurrentOsTid());
  ThreadBuffer* raw = ring.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring->thread_name = name;
    rings_.push_back(std::move(ring));
  }
  this_thread_ring_ = raw;
  return raw;
}

void Tracer::Retire(ThreadBuffer* ring) {
  static_assert(sizeof(RetiredSlot) == sizeof(Slot));
  std::unique_ptr<ThreadBuffer> owned;  // freed after the lock is dropped
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : rings_) {
    if (r.get() != ring) continue;
    owned = std::move(r);
    r = std::move(rings_.back());
    rings_.pop_back();
    break;
  }
  // Runs on the ring's owning thread, after its last push: every slot below
  // head is complete and nothing writes it concurrently.
  const int64_t epoch = clear_epoch_nanos_.load(std::memory_order_relaxed);
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  const uint32_t thread_name_id =
      ring->thread_name.empty() ? 0 : InternNameLocked(ring->thread_name);
  for (uint64_t h = head - std::min<uint64_t>(head, kSlotCapacity); h < head;
       ++h) {
    const Slot& slot = ring->slots[h & (kSlotCapacity - 1)];
    const int64_t start = slot.start_nanos.load(std::memory_order_relaxed);
    if (start < epoch) continue;
    if (retired_.empty()) retired_.resize(kSlotCapacity);
    RetiredSlot& out = retired_[retired_head_++ & (kSlotCapacity - 1)];
    out.start_nanos = start;
    out.dur_nanos = slot.dur_nanos.load(std::memory_order_relaxed);
    out.ids = slot.ids.load(std::memory_order_relaxed);
    out.arg = slot.arg.load(std::memory_order_relaxed);
    out.tid = static_cast<int32_t>(ring->tid);
    out.thread_name_id = thread_name_id;
  }
}

void Tracer::Clear() {
  clear_epoch_nanos_.store(Stopwatch::NowNanos(), std::memory_order_relaxed);
}

uint32_t Tracer::InternName(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return InternNameLocked(name);
}

uint32_t Tracer::InternNameLocked(const std::string& name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

void Tracer::Record(uint32_t name_id, int64_t start_nanos, int64_t dur_nanos,
                    uint32_t arg_name_id, int64_t arg) {
  ThreadBuffer* ring = this_thread_ring_;
  if (ring == nullptr && (ring = CreateRingForThisThread()) == nullptr) return;
  ThreadBuffer& buf = *ring;
  uint64_t h = buf.head.load(std::memory_order_relaxed);
  Slot& slot = buf.slots[h & (kSlotCapacity - 1)];
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  slot.start_nanos.store(start_nanos, std::memory_order_relaxed);
  slot.dur_nanos.store(dur_nanos, std::memory_order_relaxed);
  slot.ids.store((uint64_t{name_id} << 32) | arg_name_id,
                 std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.seq.store(2 * h + 2, std::memory_order_release);
  buf.head.store(h + 1, std::memory_order_release);
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  ThisThread().name = name;
  if (this_thread_ring_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  this_thread_ring_->thread_name = name;
}

Tracer::RingCounts Tracer::ring_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  RingCounts counts;
  counts.live = rings_.size();
  counts.retired = retired_.empty() ? 0 : 1;
  return counts;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t epoch = clear_epoch_nanos_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> events;
  auto emit = [&](int64_t start, int64_t dur, uint64_t ids, int64_t arg,
                  int64_t tid, const std::string& thread_name) {
    if (start < epoch) return;
    TraceEvent ev;
    ev.start_nanos = start;
    ev.dur_nanos = dur;
    ev.arg = arg;
    const auto name_id = static_cast<uint32_t>(ids >> 32);
    const auto arg_name_id = static_cast<uint32_t>(ids & 0xffffffffu);
    if (name_id < names_.size()) ev.name = names_[name_id];
    if (arg_name_id != 0 && arg_name_id < names_.size()) {
      ev.arg_name = names_[arg_name_id];
    }
    ev.tid = tid;
    ev.thread_name = thread_name;
    events.push_back(std::move(ev));
  };
  for (const auto& buf : rings_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, kSlotCapacity);
    for (uint64_t h = head - count; h < head; ++h) {
      const Slot& slot = buf->slots[h & (kSlotCapacity - 1)];
      const uint64_t expect = 2 * h + 2;
      if (slot.seq.load(std::memory_order_acquire) != expect) continue;
      const int64_t start = slot.start_nanos.load(std::memory_order_relaxed);
      const int64_t dur = slot.dur_nanos.load(std::memory_order_relaxed);
      const uint64_t ids = slot.ids.load(std::memory_order_relaxed);
      const int64_t arg = slot.arg.load(std::memory_order_relaxed);
      // Revalidate: if the owner lapped us mid-read, the fields above may
      // mix two pushes — drop the slot rather than emit garbage.
      if (slot.seq.load(std::memory_order_acquire) != expect) continue;
      emit(start, dur, ids, arg, buf->tid, buf->thread_name);
    }
  }
  const uint64_t retired = std::min<uint64_t>(retired_head_, retired_.size());
  for (uint64_t h = retired_head_ - retired; h < retired_head_; ++h) {
    const RetiredSlot& slot = retired_[h & (kSlotCapacity - 1)];
    emit(slot.start_nanos, slot.dur_nanos, slot.ids, slot.arg, slot.tid,
         names_[slot.thread_name_id]);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              // Parents before children: longer span first at equal start.
              return a.dur_nanos > b.dur_nanos;
            });
  return events;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<TraceEvent> events = Snapshot();
  int64_t base = 0;
  for (const TraceEvent& ev : events) {
    base = base == 0 ? ev.start_nanos : std::min(base, ev.start_nanos);
  }
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  // Thread-name metadata events, one per (tid, name) pair seen.
  std::vector<int64_t> named_tids;
  for (const TraceEvent& ev : events) {
    if (ev.thread_name.empty()) continue;
    if (std::find(named_tids.begin(), named_tids.end(), ev.tid) !=
        named_tids.end()) {
      continue;
    }
    named_tids.push_back(ev.tid);
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << ev.tid << ", \"args\": {\"name\": \""
       << JsonEscape(ev.thread_name) << "\"}}";
  }
  char num[64];
  for (const TraceEvent& ev : events) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << JsonEscape(ev.name)
       << "\", \"ph\": \"X\", \"cat\": \"mview\", \"pid\": 1, \"tid\": "
       << ev.tid;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(ev.start_nanos - base) * 1e-3);
    os << ", \"ts\": " << num;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(ev.dur_nanos) * 1e-3);
    os << ", \"dur\": " << num;
    if (!ev.arg_name.empty()) {
      os << ", \"args\": {\"" << JsonEscape(ev.arg_name)
         << "\": " << ev.arg << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

TraceSpan::TraceSpan(uint32_t name_id) {
  // The whole disabled-path cost: one relaxed load and this branch.
  active_ = Tracer::Global().enabled();
  if (active_) {
    name_id_ = name_id;
    start_nanos_ = Stopwatch::NowNanos();
  }
}

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  const int64_t now = Stopwatch::NowNanos();
  Tracer::Global().Record(name_id_, start_nanos_, now - start_nanos_,
                          arg_name_id_, arg_);
}

TraceSpan::~TraceSpan() { End(); }

}  // namespace mview::obs
