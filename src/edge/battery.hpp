#pragma once

/**
 * @file
 * Edge-device battery model.
 *
 * Energy is integrated from three draws: motion (flight / driving),
 * on-board compute (CPU busy time), and radio (per-byte transmit /
 * receive energy). The paper notes that "most power consumption is
 * due to drone motion, [but] communication can also exhaust the
 * device's battery" (Sec. 5.2), and that on-board execution "quickly
 * drains the drones' battery", leaving Scenario B incomplete for the
 * distributed platform (Sec. 2.3) — both effects fall out of this
 * accounting.
 */

namespace hivemind::edge {

/** Energy draw constants for one device class; the defaults are the
 *  drone's (quadrotor hover, Cortex A8). */
struct PowerModel
{
    /** Motion (hover + translation for drones; drive for rovers), W. */
    double motion_w = 80.0;
    /** On-board CPU at full load, W (above idle). */
    double compute_w = 2.5;
    /** Radio energy per byte sent or received, J/byte. */
    double radio_j_per_byte = 1.0e-7;
    /** Baseline electronics, W (always on while the device is up). */
    double idle_w = 1.5;
};

/** Joule-integrating battery. */
class Battery
{
  public:
    /** @param capacity_j usable capacity in joules. */
    explicit Battery(double capacity_j) : capacity_j_(capacity_j) {}

    double used_j() const { return used_j_; }

    /** Remaining charge in [0, 1]. */
    double
    remaining_fraction() const
    {
        double r = 1.0 - used_j_ / capacity_j_;
        return r > 0.0 ? r : 0.0;
    }

    /** Consumed charge in percent, clamped to 100. */
    double consumed_percent() const { return 100.0 * (1.0 - remaining_fraction()); }

    /** Whether the battery is exhausted. */
    bool depleted() const { return used_j_ >= capacity_j_; }

    /** Draw @p joules (clamps at depletion; draw is never negative). */
    void
    drain(double joules)
    {
        if (joules > 0.0)
            used_j_ += joules;
    }

  private:
    double capacity_j_;
    double used_j_ = 0.0;
};

}  // namespace hivemind::edge
