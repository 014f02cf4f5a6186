# The benchmark driver. Included by hook.cmake once every parsvd library
# target exists; the executable lands directly in the build tree root.
add_executable(parsvd_e2e ${PARSVD_E2E_DIR}/parsvd_e2e.cpp)
target_include_directories(parsvd_e2e PRIVATE ${PARSVD_E2E_DIR})
target_link_libraries(parsvd_e2e
  PRIVATE parsvd_core parsvd_io parsvd_workloads parsvd_post parsvd_obs
          parsvd_warnings)
set_target_properties(parsvd_e2e PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR})
