/**
 * @file
 * Saturating counter used by the TAGE predictor and usefulness bits.
 */

#ifndef DCFB_COMMON_SAT_COUNTER_H
#define DCFB_COMMON_SAT_COUNTER_H

#include <cstdint>

namespace dcfb {

/**
 * An n-bit saturating counter, n <= 8, in two bytes (width and value),
 * so TAGE's tables pack 2 B counters.
 *
 * For direction prediction the counter is interpreted as taken when it is
 * in the upper half of its range.
 */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits_ = 2, std::uint8_t initial = 0)
        : bits(static_cast<std::uint8_t>(bits_)), value(initial)
    {}

    /** Increment, saturating at 2^bits - 1. */
    void
    up()
    {
        if (value < maxValue())
            ++value;
    }

    /** Decrement, saturating at 0. */
    void
    down()
    {
        if (value > 0)
            --value;
    }

    /** Move toward taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        taken ? up() : down();
    }

    /** Predicted-taken when in the upper half of the range. */
    bool taken() const { return value >= (1u << (bits - 1)); }

    /** True at either saturation point (used for TAGE confidence). */
    bool saturated() const { return value == 0 || value == maxValue(); }

    /** True in the middle of the range (weak prediction). */
    bool
    weak() const
    {
        std::uint8_t mid = 1u << (bits - 1);
        return value == mid || value == mid - 1;
    }

    std::uint8_t raw() const { return value; }
    void set(std::uint8_t v) { value = v > maxValue() ? maxValue() : v; }
    std::uint8_t maxValue() const
    {
        return static_cast<std::uint8_t>((1u << bits) - 1);
    }

  private:
    std::uint8_t bits;
    std::uint8_t value;
};

static_assert(sizeof(SatCounter) == 2);

} // namespace dcfb

#endif // DCFB_COMMON_SAT_COUNTER_H
