#ifndef LAYOUTDB_STORAGE_LVM_H_
#define LAYOUTDB_STORAGE_LVM_H_

#include <cstdint>
#include <vector>

#include "storage/io_request.h"
#include "util/status.h"
#include "util/units.h"

namespace ldb {

/// A chunk of a logical request mapped onto one target.
struct TargetChunk {
  int target = 0;
  int64_t offset = 0;  ///< target-relative byte offset
  int64_t size = 0;
  /// Data-plane epoch of the manager that produced this chunk (see
  /// StripedVolumeManager::set_data_epoch). Inert for the simulator; the
  /// FileBackend shifts the file offset by epoch * stride so source
  /// and destination extents of a migration never overlap on media.
  int epoch = 0;
};

/// Striped logical-volume manager, the layout-implementation mechanism used
/// in the paper's experiments (Section 5.2.1): each database object is a
/// logical volume divided into fixed-size stripes distributed round-robin
/// over the object's assigned targets.
///
/// Only *regular* layouts (equal fraction on each used target, paper Def. 2)
/// are implementable this way; the advisor's regularization step exists
/// precisely to produce such layouts.
class StripedVolumeManager {
 public:
  /// Builds volumes for all objects and allocates contiguous per-target
  /// extents.
  ///
  /// \param object_sizes size in bytes of each object, indexed by ObjectId.
  /// \param placements for each object, the (non-empty, duplicate-free) list
  ///   of target indexes it is striped across.
  /// \param target_capacities capacity of each target in bytes.
  /// \param stripe_bytes LVM stripe size.
  /// \returns CapacityExceeded if any target's extents exceed its capacity.
  static Result<StripedVolumeManager> Create(
      std::vector<int64_t> object_sizes,
      std::vector<std::vector<int>> placements,
      const std::vector<int64_t>& target_capacities,
      int64_t stripe_bytes = kMiB);

  /// Maps a logical (object-relative) byte range to target chunks, in
  /// logical order. Requires 0 <= offset, offset + size <= object size.
  void Map(ObjectId object, int64_t offset, int64_t size,
           std::vector<TargetChunk>* out) const;

  int64_t stripe_bytes() const { return stripe_bytes_; }
  int num_objects() const { return static_cast<int>(object_sizes_.size()); }

  /// Size of object `i` in bytes.
  int64_t object_size(ObjectId i) const {
    return object_sizes_[static_cast<size_t>(i)];
  }

  /// Targets object `i` is striped across.
  const std::vector<int>& targets_of(ObjectId i) const {
    return placements_[static_cast<size_t>(i)];
  }

  /// Bytes of target `j` consumed by allocated extents.
  int64_t allocated_on(int j) const {
    return allocated_[static_cast<size_t>(j)];
  }

  /// Data-plane epoch stamped into every chunk this manager maps. Each
  /// manager allocates its extents from target offset 0, so two managers
  /// (a migration's source and destination) overlap in *simulated* offset
  /// space — harmless for the simulator, which carries no data, but fatal
  /// for a real backend. Real-I/O runs therefore place managers in
  /// alternating epochs; the backend offsets epoch-1 extents by a
  /// per-target stride (half of a double-provisioned file). Purely a
  /// data-plane annotation: simulated timing never reads it.
  void set_data_epoch(int epoch) { data_epoch_ = epoch; }
  int data_epoch() const { return data_epoch_; }

 private:
  StripedVolumeManager() = default;

  std::vector<int64_t> object_sizes_;
  std::vector<std::vector<int>> placements_;
  int64_t stripe_bytes_ = kMiB;
  /// extent_base_[i][k]: byte offset on placements_[i][k] of object i's
  /// extent on that target.
  std::vector<std::vector<int64_t>> extent_base_;
  std::vector<int64_t> allocated_;
  int data_epoch_ = 0;
};

/// Routes logical (object-relative) byte ranges to target chunks. The plain
/// implementation wraps one StripedVolumeManager; the migration executor
/// implements it too, routing each range to the old or new location (or
/// both, for mirrored writes) depending on per-chunk copy progress.
class VolumeRouter {
 public:
  virtual ~VolumeRouter() = default;

  virtual int num_objects() const = 0;
  virtual int64_t object_size(ObjectId i) const = 0;

  /// Appends the target chunks serving this access to `out` (without
  /// clearing it). Writes may fan out to more chunks than reads when a
  /// range is mirrored across two locations.
  virtual void Route(ObjectId object, int64_t offset, int64_t size,
                     bool is_write, std::vector<TargetChunk>* out) = 0;
};

/// VolumeRouter over a single static layout: every access maps through one
/// volume manager, reads and writes alike.
class PassthroughRouter final : public VolumeRouter {
 public:
  /// `volumes` must outlive the router.
  explicit PassthroughRouter(const StripedVolumeManager* volumes)
      : volumes_(volumes) {}

  int num_objects() const override { return volumes_->num_objects(); }
  int64_t object_size(ObjectId i) const override {
    return volumes_->object_size(i);
  }
  void Route(ObjectId object, int64_t offset, int64_t size, bool /*is_write*/,
             std::vector<TargetChunk>* out) override {
    volumes_->Map(object, offset, size, out);
  }

 private:
  const StripedVolumeManager* volumes_;
};

/// VolumeRouter indirection whose delegate can be swapped mid-run — the
/// seam the layout autopilot uses to splice a MigrationExecutor into (and
/// out of) the foreground I/O path without touching the workload runner.
/// The delegate must outlive every request routed through it.
class SwitchableRouter final : public VolumeRouter {
 public:
  explicit SwitchableRouter(VolumeRouter* delegate) : delegate_(delegate) {}

  VolumeRouter* delegate() const { return delegate_; }
  /// Swaps the delegate. The new delegate must describe the same objects
  /// (ids and sizes); in-flight requests already routed are unaffected.
  void set_delegate(VolumeRouter* delegate) { delegate_ = delegate; }

  int num_objects() const override { return delegate_->num_objects(); }
  int64_t object_size(ObjectId i) const override {
    return delegate_->object_size(i);
  }
  void Route(ObjectId object, int64_t offset, int64_t size, bool is_write,
             std::vector<TargetChunk>* out) override {
    delegate_->Route(object, offset, size, is_write, out);
  }

 private:
  VolumeRouter* delegate_;
};

}  // namespace ldb

#endif  // LAYOUTDB_STORAGE_LVM_H_
