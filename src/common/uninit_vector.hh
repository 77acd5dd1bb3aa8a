/**
 * @file
 * A std::vector whose sizing constructor and resize() leave new elements
 * unwritten.
 *
 * SetAssoc payloads and FlatMap slots are read only after a separate
 * occupancy byte (a tag) says the slot was filled, and each fill
 * constructs the element in place. Value-initialising such storage up
 * front only costs set-up time and page faults — megabytes for the
 * device directory and the memory image — for bytes no read ever sees.
 *
 * The element type must be trivially copy-constructible and trivially
 * destructible (std::pair of two such types qualifies): such a type is
 * implicit-lifetime, so the allocation already provides its objects, and
 * skipping destructors is harmless. An element must be written
 * (std::construct_at) before it is read. Copying the container would copy
 * unwritten elements as indeterminate bytes, so its users are move-only.
 */

#ifndef PIPM_COMMON_UNINIT_VECTOR_HH
#define PIPM_COMMON_UNINIT_VECTOR_HH

#include <memory>
#include <type_traits>
#include <vector>

namespace pipm
{

/** std::allocator whose value-less construct() writes nothing. */
template <typename T>
struct NoInitAllocator : std::allocator<T>
{
    static_assert(std::is_trivially_copy_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "unwritten elements need an implicit-lifetime type");

    template <typename U>
    struct rebind
    {
        using other = NoInitAllocator<U>;
    };

    NoInitAllocator() = default;
    template <typename U>
    NoInitAllocator(const NoInitAllocator<U> &) noexcept
    {
    }

    /** Default construction leaves the element unwritten. Construction
     *  with arguments falls through to std::construct_at. */
    template <typename U>
    void
    construct(U *) noexcept
    {
    }
};

template <typename T>
using UninitVector = std::vector<T, NoInitAllocator<T>>;

} // namespace pipm

#endif // PIPM_COMMON_UNINIT_VECTOR_HH
