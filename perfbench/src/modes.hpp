#pragma once

// One entry point per benchmark mode (see main.cpp for the command line).

#include "util.hpp"

namespace perfbench {

int run_batch(const Flags& flags);
int run_out_of_core(const Flags& flags);
int run_serve(const Flags& flags);
int run_loadgen(const Flags& flags);

}  // namespace perfbench
