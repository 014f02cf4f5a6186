# Build hook for the end-to-end benchmark, passed by run.py as
#
#   cmake -S <repo> -B build-bench -DCMAKE_PROJECT_parsvd_INCLUDE=<this file>
#
# CMake includes it at the end of the top-level project() call, before any
# library target exists, so it only records where the benchmark lives and
# defers the target definitions to the end of the top-level directory.
# add_subdirectory() cannot be deferred, hence include() of targets.cmake.
set(PARSVD_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
  CALL include ${PARSVD_E2E_DIR}/targets.cmake)
