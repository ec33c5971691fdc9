/**
 * @file
 * Unit aliases and physical constants used throughout the library.
 *
 * Quantities are plain doubles in SI base units with descriptive type
 * aliases; the aliases document intent at API boundaries without the
 * overhead of a full strong-typing layer. Helper constants cover the
 * prefixes this library actually needs.
 */

#ifndef CSPRINT_COMMON_UNITS_HH
#define CSPRINT_COMMON_UNITS_HH

#include <cstdint>

namespace csprint {

using Seconds = double;        ///< time [s]
using Hertz = double;          ///< frequency [1/s]
using Watts = double;          ///< power [W]
using Joules = double;         ///< energy [J]
using Kelvin = double;         ///< absolute temperature or delta [K]
using Celsius = double;        ///< temperature [degrees C]
using Volts = double;          ///< electric potential [V]
using Amps = double;           ///< current [A]
using Ohms = double;           ///< resistance [Ohm]
using Farads = double;         ///< capacitance [F]
using Henries = double;        ///< inductance [H]
using KelvinPerWatt = double;  ///< thermal resistance [K/W]
using JoulesPerKelvin = double;///< thermal capacitance [J/K]
using Grams = double;          ///< mass [g]
using Meters = double;         ///< length [m]
using Cycles = std::uint64_t;  ///< clock cycles at a core's frequency

namespace units {

/** Absolute-zero offset for Celsius <-> Kelvin conversion. */
constexpr double zeroCelsiusInKelvin = 273.15;

} // namespace units

/** Convert a Celsius reading to Kelvin. */
constexpr Kelvin
celsiusToKelvin(Celsius c)
{
    return c + units::zeroCelsiusInKelvin;
}

/** Convert a Kelvin reading to Celsius. */
constexpr Celsius
kelvinToCelsius(Kelvin k)
{
    return k - units::zeroCelsiusInKelvin;
}

/** Convert cycles at a given clock to seconds. */
constexpr Seconds
cyclesToSeconds(Cycles cycles, Hertz clock)
{
    return static_cast<double>(cycles) / clock;
}

/** Convert seconds to (truncated) cycles at a given clock. */
constexpr Cycles
secondsToCycles(Seconds s, Hertz clock)
{
    return static_cast<Cycles>(s * clock);
}

} // namespace csprint

#endif // CSPRINT_COMMON_UNITS_HH
