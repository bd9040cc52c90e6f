// Tests for the device model: resource accounting, frame addressing
// bijection, floorplan validation, and the Table 2 invariants the paper's
// proof of concept relies on.
#include <gtest/gtest.h>

#include "fabric/device.hpp"
#include "fabric/partition.hpp"

namespace sacha::fabric {
namespace {

TEST(Resources, AdditionIsFieldwise) {
  const ResourceCounts a{.clb = 1, .bram18 = 2, .iob = 3, .dcm = 4, .icap = 1};
  const ResourceCounts b{.clb = 10, .bram18 = 20, .iob = 30, .dcm = 40};
  const ResourceCounts sum = a + b;
  EXPECT_EQ(sum.clb, 11u);
  EXPECT_EQ(sum.bram18, 22u);
  EXPECT_EQ(sum.iob, 33u);
  EXPECT_EQ(sum.dcm, 44u);
  EXPECT_EQ(sum.icap, 1u);
}

TEST(Resources, FitsWithinIsPerField) {
  const ResourceCounts small{.clb = 5, .bram18 = 5};
  const ResourceCounts big{.clb = 10, .bram18 = 10, .iob = 1, .dcm = 1, .icap = 1};
  EXPECT_TRUE(small.fits_within(big));
  EXPECT_FALSE(big.fits_within(small));
  // Equal counts fit.
  EXPECT_TRUE(big.fits_within(big));
}

TEST(Resources, BramCapacityBytes) {
  // One 18-kbit BRAM = 2,304 bytes.
  EXPECT_EQ(bram_capacity_bytes({.bram18 = 1}), 2'304u);
  EXPECT_EQ(bram_capacity_bytes({.bram18 = 832}), 832u * 2'304u);
}

TEST(Virtex6, FrameCountMatchesPaper) {
  const DeviceModel dev = DeviceModel::xc6vlx240t();
  EXPECT_EQ(dev.total_frames(), 28'488u);
  EXPECT_EQ(dev.geometry().words_per_frame(), 81u);
  EXPECT_EQ(dev.frame_bytes(), 324u);
}

TEST(Virtex6, ResourceTotalsMatchTable2) {
  const ResourceCounts t = DeviceModel::xc6vlx240t().totals();
  EXPECT_EQ(t.clb, 18'840u);
  EXPECT_EQ(t.bram18, 832u);
  EXPECT_EQ(t.icap, 1u);
  EXPECT_EQ(t.dcm, 12u);
}

TEST(Virtex6, BramCannotHoldPartialBitstream) {
  // The bounded-memory assumption (§5.2): the partial bitstream for the
  // dynamic partition must not fit in the device's BRAM.
  const DeviceModel dev = DeviceModel::xc6vlx240t();
  const std::uint64_t partial = dev.bitstream_bytes(kVirtex6DynamicFrames);
  EXPECT_GT(partial, bram_capacity_bytes(dev.totals()));
}

TEST(FrameAddressing, PackUnpackRoundTrip) {
  const FrameAddress addr{BlockType::kBramContent, 5, 120, 35};
  EXPECT_EQ(FrameAddress::unpack(addr.pack()), addr);
}

TEST(FrameAddressing, LinearIndexBijectionSmall) {
  const DeviceModel dev = DeviceModel::small_test_device();
  const ConfigGeometry& g = dev.geometry();
  for (std::uint32_t i = 0; i < g.total_frames(); ++i) {
    const FrameAddress addr = g.address_of(i);
    EXPECT_TRUE(g.valid(addr));
    EXPECT_EQ(g.linear_index(addr), i);
  }
}

TEST(FrameAddressing, LinearIndexBijectionVirtex6Sampled) {
  const DeviceModel device = DeviceModel::xc6vlx240t();
  const ConfigGeometry& g = device.geometry();
  for (std::uint32_t i = 0; i < g.total_frames(); i += 97) {
    EXPECT_EQ(g.linear_index(g.address_of(i)), i);
  }
  // Boundary frames.
  EXPECT_EQ(g.linear_index(g.address_of(0)), 0u);
  EXPECT_EQ(g.linear_index(g.address_of(g.total_frames() - 1)),
            g.total_frames() - 1);
}

TEST(FrameAddressing, LogicFramesPrecedeBram) {
  const DeviceModel device = DeviceModel::xc6vlx240t();
  const ConfigGeometry& g = device.geometry();
  const std::uint32_t logic_frames = g.block(BlockType::kLogic).frames();
  EXPECT_EQ(g.address_of(0).block, BlockType::kLogic);
  EXPECT_EQ(g.address_of(logic_frames - 1).block, BlockType::kLogic);
  EXPECT_EQ(g.address_of(logic_frames).block, BlockType::kBramContent);
}

TEST(FrameAddressing, InvalidAddressesRejected) {
  const DeviceModel device = DeviceModel::xc6vlx240t();
  const ConfigGeometry& g = device.geometry();
  EXPECT_FALSE(g.valid(FrameAddress{BlockType::kLogic, 6, 0, 0}));    // row
  EXPECT_FALSE(g.valid(FrameAddress{BlockType::kLogic, 0, 121, 0}));  // col
  EXPECT_FALSE(g.valid(FrameAddress{BlockType::kLogic, 0, 0, 36}));   // minor
  EXPECT_FALSE(g.valid(FrameAddress{BlockType::kBramContent, 0, 28, 0}));
}

TEST(FrameRange, ContainsAndOverlap) {
  const FrameRange a{10, 5};
  EXPECT_TRUE(a.contains(10));
  EXPECT_TRUE(a.contains(14));
  EXPECT_FALSE(a.contains(15));
  EXPECT_FALSE(a.contains(9));
  EXPECT_TRUE(a.overlaps(FrameRange{14, 1}));
  EXPECT_FALSE(a.overlaps(FrameRange{15, 3}));
  EXPECT_TRUE(a.overlaps(FrameRange{0, 11}));
}

TEST(ReferenceFloorplan, Validates) {
  const Floorplan plan = sacha_reference_floorplan();
  const Status status = plan.validate();
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(ReferenceFloorplan, StatPartMatchesTable2) {
  const Floorplan plan = sacha_reference_floorplan();
  const Partition* stat = plan.find_partition("StatPart");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->resources.clb, 1'400u);
  EXPECT_EQ(stat->resources.bram18, 72u);
  EXPECT_EQ(stat->resources.icap, 1u);
  EXPECT_EQ(stat->resources.dcm, 1u);
  EXPECT_EQ(stat->frames.count, 2'088u);
}

TEST(ReferenceFloorplan, DynPartMatchesTable2) {
  const Floorplan plan = sacha_reference_floorplan();
  const Partition* dyn = plan.find_partition("DynPart");
  ASSERT_NE(dyn, nullptr);
  EXPECT_EQ(dyn->resources.clb, 17'440u);
  EXPECT_EQ(dyn->resources.bram18, 760u);
  EXPECT_EQ(dyn->resources.icap, 0u);
  EXPECT_EQ(dyn->resources.dcm, 11u);
  EXPECT_EQ(dyn->frames.count, 26'400u);
}

TEST(ReferenceFloorplan, MacCoreMatchesTable2) {
  const Floorplan plan = sacha_reference_floorplan();
  const auto& components = plan.components();
  const auto it =
      std::find_if(components.begin(), components.end(), [](const Component& c) {
        return c.name == component_names::kAesCmac;
      });
  ASSERT_NE(it, components.end());
  EXPECT_EQ(it->resources.clb, 283u);
  EXPECT_EQ(it->resources.bram18, 8u);
}

TEST(ReferenceFloorplan, StatPartComponentsSumToRegion) {
  // The decomposition of Fig. 10's blocks must tile the StatPart exactly:
  // Table 2's StatPart row is the sum of its components.
  const Floorplan plan = sacha_reference_floorplan();
  const ResourceCounts usage = plan.component_usage("StatPart");
  EXPECT_EQ(usage.clb, 1'400u);
  EXPECT_EQ(usage.bram18, 72u);
  EXPECT_EQ(usage.icap, 1u);
  EXPECT_EQ(usage.dcm, 1u);
}

TEST(ReferenceFloorplan, PartitionsTileTheDevice) {
  const Floorplan plan = sacha_reference_floorplan();
  ResourceCounts total;
  std::uint32_t frames = 0;
  for (const Partition& p : plan.partitions()) {
    total += p.resources;
    frames += p.frames.count;
  }
  EXPECT_EQ(total.clb, plan.device().totals().clb);
  EXPECT_EQ(total.bram18, plan.device().totals().bram18);
  EXPECT_EQ(total.dcm, plan.device().totals().dcm);
  EXPECT_EQ(total.icap, plan.device().totals().icap);
  EXPECT_EQ(frames, plan.device().total_frames());
}

TEST(ReferenceFloorplan, StatPartIsUnderNinePercent) {
  // §7.1: "The StatPart occupies less than 9% of the FPGA (when considering
  // both CLBs and BRAMs)."
  const Floorplan plan = sacha_reference_floorplan();
  const Partition* stat = plan.find_partition("StatPart");
  ASSERT_NE(stat, nullptr);
  const auto& dev = plan.device().totals();
  EXPECT_LT(static_cast<double>(stat->resources.clb) / dev.clb, 0.09);
  EXPECT_LT(static_cast<double>(stat->resources.bram18) / dev.bram18, 0.09);
}

TEST(ReferenceFloorplan, FrameOwnershipLookup) {
  const Floorplan plan = sacha_reference_floorplan();
  EXPECT_EQ(plan.partition_of_frame(0)->name, "StatPart");
  EXPECT_EQ(plan.partition_of_frame(2'087)->name, "StatPart");
  EXPECT_EQ(plan.partition_of_frame(2'088)->name, "DynPart");
  EXPECT_EQ(plan.partition_of_frame(28'487)->name, "DynPart");
  EXPECT_EQ(plan.frames_of_kind(PartitionKind::kDynamic), 26'400u);
  EXPECT_EQ(plan.frames_of_kind(PartitionKind::kStatic), 2'088u);
}

TEST(FloorplanValidation, RejectsOverlappingPartitions) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{0, 8}, {.clb = 10}});
  plan.add_partition({"b", PartitionKind::kDynamic, FrameRange{7, 8}, {.clb = 10}});
  EXPECT_FALSE(plan.validate().ok());
}

TEST(FloorplanValidation, RejectsOutOfBoundsRange) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{10, 10}, {.clb = 1}});
  EXPECT_FALSE(plan.validate().ok());
}

TEST(FloorplanValidation, RejectsResourceOversubscription) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{0, 4}, {.clb = 1'000'000}});
  EXPECT_FALSE(plan.validate().ok());
}

TEST(FloorplanValidation, RejectsComponentInUnknownPartition) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{0, 4}, {.clb = 10}});
  plan.add_component({"widget", "missing", {.clb = 1}});
  EXPECT_FALSE(plan.validate().ok());
}

TEST(FloorplanValidation, RejectsComponentOverflow) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{0, 4}, {.clb = 10}});
  plan.add_component({"widget", "a", {.clb = 11}});
  EXPECT_FALSE(plan.validate().ok());
}

TEST(FloorplanValidation, RejectsDuplicatePartitionNames) {
  Floorplan plan(DeviceModel::small_test_device());
  plan.add_partition({"a", PartitionKind::kStatic, FrameRange{0, 4}, {.clb = 1}});
  plan.add_partition({"a", PartitionKind::kDynamic, FrameRange{4, 4}, {.clb = 1}});
  EXPECT_FALSE(plan.validate().ok());
}

// Property sweep: geometry bijection holds for a family of device shapes.
struct GeometryCase {
  std::uint32_t lr, lc, lm, br, bc, bm;
};

class GeometrySweep : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(GeometrySweep, BijectionHolds) {
  const auto& p = GetParam();
  const ConfigGeometry g(BlockGeometry{p.lr, p.lc, p.lm},
                         BlockGeometry{p.br, p.bc, p.bm}, 4);
  for (std::uint32_t i = 0; i < g.total_frames(); ++i) {
    EXPECT_EQ(g.linear_index(g.address_of(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeometrySweep,
                         ::testing::Values(GeometryCase{1, 1, 1, 1, 1, 1},
                                           GeometryCase{2, 3, 4, 1, 2, 2},
                                           GeometryCase{3, 7, 2, 2, 2, 5},
                                           GeometryCase{1, 16, 8, 4, 1, 1},
                                           GeometryCase{5, 5, 5, 5, 5, 5}));

}  // namespace
}  // namespace sacha::fabric
