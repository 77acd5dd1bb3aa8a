/**
 * @file
 * Workload abstraction: per-core generated memory traces.
 *
 * The paper drives its simulator with Pin traces of 13 memory-intensive
 * benchmarks (Table 1). This reproduction generates equivalent traces
 * synthetically (see DESIGN.md for why that substitution preserves the
 * behaviour under study): each benchmark is a parameterised access-pattern
 * model that reproduces the suite's documented structure — per-host
 * partition affinity, hot-set skew, read/write mix, spatial run lengths
 * and compute gaps.
 *
 * References address *regions*, not physical addresses: shared-heap pages
 * are named by a dense index that the OS layer maps (and remaps, under
 * migration) onto unified physical frames; private data is named by a
 * per-host offset.
 */

#ifndef PIPM_WORKLOADS_WORKLOAD_HH
#define PIPM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace pipm
{

/** One memory reference emitted by a core trace. */
struct MemRef
{
    bool shared = true;        ///< shared heap vs host-private data
    std::uint64_t page = 0;    ///< shared page index, or private page index
    std::uint8_t lineIdx = 0;  ///< line within the page [0, 64)
    MemOp op = MemOp::read;
    std::uint16_t gap = 0;     ///< non-memory instructions preceding this op
};

/** A deterministic per-core reference stream. */
class CoreTrace
{
  public:
    virtual ~CoreTrace() = default;

    /** Produce the next reference. Streams are infinite. */
    virtual MemRef next() = 0;
};

/** A benchmark: names, scaled footprints, and trace construction. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as listed in Table 1 (e.g. "pr", "ycsb"). */
    virtual std::string name() const = 0;

    /** Suite the benchmark belongs to (e.g. "GAPBS"). */
    virtual std::string suite() const = 0;

    /** Unscaled memory footprint in bytes (Table 1 column 3). */
    virtual std::uint64_t footprintBytes() const = 0;

    /** Scaled shared-heap size. */
    virtual std::uint64_t sharedBytes() const = 0;

    /** Scaled private (code/stack/kernel) bytes pinned per host. */
    virtual std::uint64_t privateBytesPerHost() const = 0;

    /**
     * Stable fingerprint of everything that shapes the generated traces
     * (used to key cached experiment results).
     */
    virtual std::string fingerprint() const = 0;

    /**
     * Build the reference stream of one core.
     * @param host the core's host
     * @param core core index within the host
     * @param cores_per_host total cores per host (for partitioning)
     * @param num_hosts total host count
     * @param seed base RNG seed for determinism
     */
    virtual std::unique_ptr<CoreTrace>
    makeTrace(HostId host, CoreId core, unsigned cores_per_host,
              unsigned num_hosts, std::uint64_t seed) const = 0;
};

/**
 * A footprint-only workload for code that drives MultiHostSystem::access()
 * itself (tests, the fault-schedule checker, examples): it sizes the
 * shared heap and the private regions and has no traces. Its name and
 * fingerprint are fixed, since nothing on those paths reads them.
 */
class FootprintWorkload : public Workload
{
  public:
    FootprintWorkload(std::uint64_t shared_bytes,
                      std::uint64_t private_bytes_per_host)
        : shared_(shared_bytes), private_(private_bytes_per_host)
    {
    }

    std::string name() const override { return "footprint"; }
    std::string suite() const override { return "direct"; }
    std::uint64_t footprintBytes() const override { return shared_; }
    std::uint64_t sharedBytes() const override { return shared_; }
    std::uint64_t privateBytesPerHost() const override { return private_; }
    std::string fingerprint() const override { return "footprint"; }

    std::unique_ptr<CoreTrace>
    makeTrace(HostId, CoreId, unsigned, unsigned,
              std::uint64_t) const override
    {
        panic("FootprintWorkload has no traces; drive the system directly");
    }

  private:
    std::uint64_t shared_;
    std::uint64_t private_;
};

} // namespace pipm

#endif // PIPM_WORKLOADS_WORKLOAD_HH
