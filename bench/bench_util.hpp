#pragma once
/// \file bench_util.hpp
/// \brief Shared helpers for the figure-reproduction bench binaries.

#include <iostream>
#include <string>

#include "common/types.hpp"

namespace oagrid::bench {

/// Percentage gain of `improved` over `baseline` (positive = improvement),
/// the quantity plotted in the paper's Figures 8 and 10.
inline double gain_percent(Seconds baseline, Seconds improved) {
  return 100.0 * (baseline - improved) / baseline;
}

/// Standard bench banner so every binary states which artifact it
/// regenerates.
inline void banner(const std::string& artifact, const std::string& summary) {
  std::cout << "================================================================\n"
            << "Reproduces: " << artifact << "\n"
            << summary << "\n"
            << "================================================================\n\n";
}

}  // namespace oagrid::bench
