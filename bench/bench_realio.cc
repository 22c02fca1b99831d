// Sim-vs-real drift: the same request classes replayed once through the
// event-queue simulator (StorageSystem) and once through real files
// (FileBackend), reporting per-class service-time drift.
//
// Each class is a (pattern, request size, direction) tuple — the axes the
// calibrated cost tables are built over — replayed as a serial (depth-1)
// request chain against one target, so per-request service time is
// directly observable on both engines with no queueing ambiguity. The sim
// side runs on a calibrated 15K-disk model in virtual seconds; the real
// side stripes the same byte space over a file under --backend-dir and
// times one synchronous ReadSync/WriteSync per request in wall-clock
// seconds (timing-only replay: null data buffers move through the
// backend's aligned scratch).
//
// Absolute drift against the *disk* model is expected on any modern
// filesystem (page cache, NVMe, tmpfs) — the point of the bench is the
// measurement seam itself: the table makes the gap visible, per class, so
// a file backend on the paper's actual testbed hardware can be validated
// against the model, and the relative ordering of classes (sequential
// faster than random, large requests amortizing better) can be checked
// anywhere. A `calib` sanity column reruns the sim side a second time and
// must reproduce it exactly (the sim is deterministic).
//
// --json emits one row per (target, class) for tools/bench_record.py.
// --backend-dir=<dir> places the backing files (default: a fresh
// directory under the system temp dir). The bench deletes the files it
// made on exit, and the directory too when it made that. --requests=<n>
// sets the per-class request count.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "io/file_backend.h"
#include "storage/disk.h"
#include "storage/storage_system.h"
#include "util/random.h"
#include "util/spec_text.h"
#include "util/table.h"
#include "util/units.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

struct RequestClass {
  const char* name;
  int64_t request_bytes;
  bool is_write;
  bool sequential;
};

const RequestClass kClasses[] = {
    {"seq-read-256K", 256 * kKiB, false, true},
    {"seq-read-64K", 64 * kKiB, false, true},
    {"rand-read-64K", 64 * kKiB, false, false},
    {"rand-read-8K", 8 * kKiB, false, false},
    {"seq-write-256K", 256 * kKiB, true, true},
    {"rand-write-8K", 8 * kKiB, true, false},
};

/// The byte space each class walks (shared by both engines so offsets are
/// identical request for request).
constexpr int64_t kSpanBytes = 64 * kMiB;

/// Offsets for one class: sequential wraps a linear walk, random draws
/// aligned offsets from a seeded stream.
std::vector<int64_t> MakeOffsets(const RequestClass& c, int requests,
                                 uint64_t seed) {
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(requests));
  Rng rng(seed);
  const int64_t slots = kSpanBytes / c.request_bytes;
  for (int k = 0; k < requests; ++k) {
    const int64_t slot =
        c.sequential
            ? k % slots
            : static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(slots)));
    offsets.push_back(slot * c.request_bytes);
  }
  return offsets;
}

double MeanS(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double P99S(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(
      0.99 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

/// Serial replay through the simulator on a *fresh* system (so the run is
/// a pure function of the offsets — repeating it must reproduce every
/// service time bit for bit): each request's virtual service time is its
/// completion time minus its submit time.
std::vector<double> ReplaySim(const DiskModel& proto, const RequestClass& c,
                              const std::vector<int64_t>& offsets) {
  std::vector<TargetSpec> specs{{"d0", &proto, 1, 64 * kKiB}};
  StorageSystem sys(specs);
  std::vector<double> service;
  service.reserve(offsets.size());
  for (int64_t off : offsets) {
    TargetRequest req;
    req.offset = off;
    req.size = c.request_bytes;
    req.is_write = c.is_write;
    const double submitted = sys.Now();
    sys.Submit(0, req, [&service, submitted](double when) {
      service.push_back(when - submitted);
    });
    sys.queue().RunUntilIdle();
  }
  return service;
}

/// Serial replay through the file backend: wall-clock per request, timed
/// around one timing-only ReadSync/WriteSync (depth 1, so no queueing is
/// hidden).
std::vector<double> ReplayReal(FileBackend* backend, const RequestClass& c,
                               const std::vector<int64_t>& offsets) {
  std::vector<double> service;
  service.reserve(offsets.size());
  for (int64_t off : offsets) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status got =
        c.is_write ? backend->WriteSync(0, off, c.request_bytes, nullptr)
                   : backend->ReadSync(0, off, c.request_bytes, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    if (!got.ok()) continue;  // dropped from the sample
    service.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return service;
}

/// The real side's backing store. Going out of scope (on every exit path)
/// it closes the backend and deletes what the bench put on disk: the
/// backing file, or the whole directory when the bench made it.
struct BackingStore {
  explicit BackingStore(std::string dir_in)
      : dir(std::move(dir_in)), made_dir(!std::filesystem::exists(dir)) {}
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;
  ~BackingStore() {
    const std::string file = backend ? backend->target_path(0) : "";
    backend.reset();
    std::error_code ec;
    if (made_dir) {
      std::filesystem::remove_all(dir, ec);
    } else if (!file.empty()) {
      std::filesystem::remove(file, ec);
    }
  }

  std::string dir;
  bool made_dir;
  std::unique_ptr<FileBackend> backend;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  std::string backend_dir;
  int requests = 64;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--backend-dir=", 14) == 0) {
      backend_dir = argv[a] + 14;
    } else if (std::strncmp(argv[a], "--requests=", 11) == 0) {
      if (!ParseInteger(argv[a] + 11, &requests) || requests <= 0) {
        std::fprintf(stderr, "--requests needs a count > 0, got '%s'\n",
                     argv[a] + 11);
        return 2;
      }
    }
  }
  if (backend_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    backend_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                  StrFormat("/bench_realio_%d", static_cast<int>(::getpid()));
  }
  PrintHeader("Real I/O",
              "sim-vs-real service-time drift per request class", env);

  // Sim side: one calibrated 15K disk, the model every cost table and the
  // drift comparison are anchored to.
  DiskModel proto(Scsi15kParams());

  // Real side: one backing file covering the same span. Populate it once
  // so reads hit written extents, not filesystem holes.
  FileBackendOptions fopts;
  fopts.dir = backend_dir;
  fopts.capacity_bytes = {kSpanBytes};
  fopts.quiet = true;
  BackingStore store(backend_dir);
  auto opened = FileBackend::Open(fopts);
  if (!opened.ok()) {
    std::fprintf(stderr, "file backend: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  store.backend = std::move(opened).value();
  FileBackend* real = store.backend.get();
  {
    std::vector<char> block(static_cast<size_t>(kMiB), 0x5a);
    for (int64_t off = 0; off < kSpanBytes; off += kMiB) {
      const Status s = real->WriteSync(0, off, kMiB, block.data());
      if (!s.ok()) {
        std::fprintf(stderr, "prefill: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const Status s = real->Sync();
    if (!s.ok()) {
      std::fprintf(stderr, "prefill sync: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("backing file: %s (%s, block %lld B)\n\n",
              real->target_path(0).c_str(),
              real->geometry().direct_io ? "O_DIRECT" : "buffered",
              static_cast<long long>(real->geometry().logical_block_bytes));

  TextTable table({"class", "requests", "sim mean", "real mean", "sim p99",
                   "real p99", "drift", "calib"});
  JsonRows rows;
  bool sim_reproducible = true;
  for (const RequestClass& c : kClasses) {
    const std::vector<int64_t> offsets =
        MakeOffsets(c, requests, env.seed);
    const std::vector<double> sim_s = ReplaySim(proto, c, offsets);
    const std::vector<double> real_s = ReplayReal(real, c, offsets);
    // The sim is deterministic: replaying the same offsets on a fresh
    // system must reproduce every service time exactly.
    const bool calib_ok = sim_s == ReplaySim(proto, c, offsets);
    sim_reproducible = sim_reproducible && calib_ok;

    const double sim_mean = MeanS(sim_s);
    const double real_mean = MeanS(real_s);
    const double drift = sim_mean > 0.0 ? real_mean / sim_mean : 0.0;
    table.AddRow({c.name, StrFormat("%d", requests),
                  StrFormat("%.3f ms", sim_mean * 1e3),
                  StrFormat("%.3f ms", real_mean * 1e3),
                  StrFormat("%.3f ms", P99S(sim_s) * 1e3),
                  StrFormat("%.3f ms", P99S(real_s) * 1e3),
                  StrFormat("%.4fx", drift), calib_ok ? "ok" : "DRIFTED"});

    rows.BeginRow();
    rows.Field("bench", "realio");
    rows.Field("class", c.name);
    rows.Field("request_bytes", c.request_bytes);
    rows.Field("requests", static_cast<int64_t>(real_s.size()));
    rows.Field("sim_mean_ms", sim_mean * 1e3);
    rows.Field("real_mean_ms", real_mean * 1e3);
    rows.Field("sim_p99_ms", P99S(sim_s) * 1e3);
    rows.Field("real_p99_ms", P99S(real_s) * 1e3);
    rows.Field("drift", drift);
    rows.Field("direct_io", real->geometry().direct_io);
    rows.Field("sim_reproducible", calib_ok);
  }
  std::printf("%s\n", table.ToString().c_str());

  const BackendCounters rc = real->counters();
  std::printf("real backend: %llu reads, %llu writes, %.1f MB moved, "
              "%.3f s in I/O syscalls, %llu unaligned, %llu errors\n",
              static_cast<unsigned long long>(rc.reads),
              static_cast<unsigned long long>(rc.writes),
              static_cast<double>(rc.bytes_read + rc.bytes_written) / 1e6,
              rc.io_time_s,
              static_cast<unsigned long long>(rc.unaligned_requests),
              static_cast<unsigned long long>(rc.errors));
  if (!sim_reproducible) {
    std::fprintf(stderr, "FAIL: sim replay is not reproducible\n");
  }

  if (env.json && !rows.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return sim_reproducible ? 0 : 1;
}
