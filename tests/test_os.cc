/**
 * @file
 * Unit tests for the OS layer: frame allocators, the unified address
 * space, shared-page (GIM) migration and PIPM frame allocation.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "os/address_space.hh"

namespace pipm
{
namespace
{

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest()
        : cfg_(testConfig()),
          space_(cfg_, 64 * pageBytes, 8 * pageBytes)
    {
    }

    SystemConfig cfg_;
    AddressSpace space_;
};

TEST(FrameAllocator, AllocatesSequentiallyThenRecycles)
{
    FrameAllocator alloc(100, 3);
    EXPECT_EQ(alloc.alloc(), 100u);
    EXPECT_EQ(alloc.alloc(), 101u);
    EXPECT_EQ(alloc.alloc(), 102u);
    EXPECT_FALSE(alloc.alloc());
    alloc.free(101);
    EXPECT_EQ(alloc.inUse(), 2u);
    EXPECT_EQ(alloc.alloc(), 101u);
}

TEST(FrameAllocator, FreeingForeignFramePanics)
{
    ThrowOnErrorScope guard;
    FrameAllocator alloc(100, 3);
    EXPECT_THROW(alloc.free(99), SimError);
}

TEST_F(AddressSpaceTest, SharedPagesStartInCxl)
{
    EXPECT_EQ(space_.sharedPages(), 64u);
    for (std::uint64_t i = 0; i < space_.sharedPages(); ++i) {
        const SharedMapping &m = space_.sharedMapping(i);
        EXPECT_EQ(m.gimHost, invalidHost);
        EXPECT_EQ(m.frame, m.cxlFrame);
        EXPECT_EQ(cfg_.regionOf(pageBase(m.frame)), AddrRegion::cxlPool);
    }
}

TEST_F(AddressSpaceTest, SharedFramesAreDistinct)
{
    std::set<PageFrame> frames;
    for (std::uint64_t i = 0; i < space_.sharedPages(); ++i)
        frames.insert(space_.sharedFrame(i));
    EXPECT_EQ(frames.size(), space_.sharedPages());
}

TEST_F(AddressSpaceTest, ReverseMapFindsHomeFrames)
{
    const PageFrame f = space_.sharedFrame(5);
    auto idx = space_.sharedIndexOf(f);
    ASSERT_TRUE(idx);
    EXPECT_EQ(*idx, 5u);
    EXPECT_FALSE(space_.sharedIndexOf(f + space_.sharedPages() + 10));
}

TEST_F(AddressSpaceTest, MigrationMovesPageIntoHostLocal)
{
    ASSERT_TRUE(space_.migrateSharedToHost(3, 1));
    const SharedMapping &m = space_.sharedMapping(3);
    EXPECT_EQ(m.gimHost, 1);
    EXPECT_EQ(cfg_.regionOf(pageBase(m.frame)), AddrRegion::hostLocal);
    EXPECT_EQ(cfg_.homeHostOf(pageBase(m.frame)), 1);
    EXPECT_EQ(space_.migratedFramesOn(1), 1u);
    // The reverse map follows the move.
    auto idx = space_.sharedIndexOf(m.frame);
    ASSERT_TRUE(idx);
    EXPECT_EQ(*idx, 3u);
    // The home CXL frame no longer reverse-maps.
    EXPECT_FALSE(space_.sharedIndexOf(m.cxlFrame));
}

TEST_F(AddressSpaceTest, DemotionRestoresHomeFrame)
{
    ASSERT_TRUE(space_.migrateSharedToHost(3, 1));
    const PageFrame home = space_.sharedMapping(3).cxlFrame;
    space_.demoteSharedToCxl(3);
    EXPECT_EQ(space_.sharedFrame(3), home);
    EXPECT_EQ(space_.sharedMapping(3).gimHost, invalidHost);
    EXPECT_EQ(space_.migratedFramesOn(1), 0u);
}

TEST_F(AddressSpaceTest, MigrationFailsWhenLocalMemoryExhausted)
{
    const std::uint64_t budget =
        cfg_.localBytesPerHost() / pageBytes - 8;   // minus private pages
    std::uint64_t migrated = 0;
    for (std::uint64_t i = 0; i < space_.sharedPages(); ++i) {
        if (!space_.migrateSharedToHost(i, 0))
            break;
        ++migrated;
    }
    EXPECT_LE(migrated, budget);
    EXPECT_EQ(space_.migratedFramesOn(0), migrated);
}

TEST_F(AddressSpaceTest, HostToHostMoveReleasesOldFrame)
{
    ASSERT_TRUE(space_.migrateSharedToHost(2, 0));
    ASSERT_TRUE(space_.migrateSharedToHost(2, 1));
    EXPECT_EQ(space_.migratedFramesOn(0), 0u);
    EXPECT_EQ(space_.migratedFramesOn(1), 1u);
    EXPECT_EQ(space_.sharedMapping(2).gimHost, 1);
}

TEST_F(AddressSpaceTest, PipmFramesComeFromTheSamePool)
{
    auto f = space_.allocPipmFrame(0);
    ASSERT_TRUE(f);
    EXPECT_EQ(cfg_.homeHostOf(pageBase(*f)), 0);
    EXPECT_EQ(space_.migratedFramesOn(0), 1u);
    space_.freePipmFrame(0, *f);
    EXPECT_EQ(space_.migratedFramesOn(0), 0u);
}

TEST_F(AddressSpaceTest, PrivateAddressesAreHostLocal)
{
    const PhysAddr pa = space_.privateAddr(1, 100);
    EXPECT_EQ(cfg_.regionOf(pa), AddrRegion::hostLocal);
    EXPECT_EQ(cfg_.homeHostOf(pa), 1);
}

TEST_F(AddressSpaceTest, PrivateOutOfRangePanics)
{
    ThrowOnErrorScope guard;
    EXPECT_THROW(space_.privateAddr(0, 8 * pageBytes), SimError);
}

TEST(AddressSpace, RejectsOversizedHeap)
{
    ThrowOnErrorScope guard;
    SystemConfig cfg = testConfig();
    EXPECT_THROW(AddressSpace(cfg, cfg.cxlPoolBytes() + pageBytes,
                              pageBytes),
                 SimError);
}

} // namespace
} // namespace pipm
